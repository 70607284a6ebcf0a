package main

import (
	"sync"
	"time"
)

// counters snapshots the cumulative counters the per-layer metrics are
// deltas of, read from the layers' public Metrics() and Stats().
func (c *common) counters() map[string]float64 {
	out := map[string]float64{"eventlayer.dropped": float64(c.bus.dropped())}
	if c.cl != nil {
		snap := c.cl.Metrics().Snapshot()
		for _, name := range []string{
			"queryindex.writes", "queryindex.candidates.probed",
			"queryindex.candidates.evaluated", "queryindex.candidates.matched",
		} {
			out[name] = float64(snap.Counters[name])
		}
		// Wire counters are process-wide; the cluster registry exposes them.
		for _, name := range []string{
			"wire.encode.write.bytes", "wire.encode.write.messages",
			"wire.encode.notification.bytes", "wire.encode.notification.messages",
		} {
			out[name] = snap.Gauges[name]
		}
		for _, st := range c.cl.Stats() {
			out["exec."+st.Component] += float64(st.Executed)
		}
	}
	if c.srv != nil {
		snap := c.srv.Metrics().Snapshot()
		for _, name := range []string{"appserver.notifications", "appserver.dedup_drops", "appserver.event_drops"} {
			out[name] = float64(snap.Counters[name])
		}
	}
	if c.gw != nil {
		snap := c.gw.Metrics().Snapshot()
		for _, name := range []string{"gateway.events.fanout", "gateway.client.drops"} {
			out[name] = float64(snap.Counters[name])
		}
	}
	if c.extra != nil {
		c.extra(out)
	}
	return out
}

// queueComponents are the topology components whose input queues are
// sampled during the traced phase.
var queueComponents = []string{"write-ingest", "match", "sort"}

// sampleQueues polls the topology's queue lengths every millisecond until
// stop is called; max returns the largest length seen per component, as
// topology.queue_max.<component>.
func (c *common) sampleQueues() (max func() map[string]float64, stop func()) {
	var mu sync.Mutex
	peak := map[string]float64{}
	for _, comp := range queueComponents {
		peak["topology.queue_max."+comp] = 0
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	if c.cl != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
				}
				mu.Lock()
				for _, st := range c.cl.Stats() {
					name := "topology.queue_max." + st.Component
					if v, ok := peak[name]; ok && float64(st.QueueLen) > v {
						peak[name] = float64(st.QueueLen)
					}
				}
				mu.Unlock()
			}
		}()
	}
	max = func() map[string]float64 {
		mu.Lock()
		defer mu.Unlock()
		out := map[string]float64{}
		for k, v := range peak {
			out[k] = v
		}
		return out
	}
	stop = func() {
		close(done)
		wg.Wait()
	}
	return max, stop
}

// layers turns the traced phase's counter deltas and the benchmark's own
// call timings into per-layer metrics. writes is the phase's write count.
func (c *common) layers(d map[string]float64, writes int) map[string]float64 {
	per := func(v float64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	w := float64(writes)
	m := map[string]float64{
		"core.ingest_ms":            c.stampIngest.meanUS() / 1000,
		"core.grid_ms":              c.stampGrid.meanUS() / 1000,
		"core.candidates_per_write": per(d["queryindex.candidates.probed"], d["queryindex.writes"]),
		"core.match_ratio":          per(d["queryindex.candidates.matched"], d["queryindex.candidates.evaluated"]),

		"wire.encode_us":              c.tEncode.meanUS(),
		"wire.decode_us":              c.tDecode.meanUS(),
		"wire.bytes_per_write":        per(d["wire.encode.write.bytes"], d["wire.encode.write.messages"]),
		"wire.bytes_per_notification": per(d["wire.encode.notification.bytes"], d["wire.encode.notification.messages"]),
		"eventlayer.publish_us":       c.tPublish.meanUS(),
		"eventlayer.bus_ms":           c.stampBus.meanUS() / 1000,
		"eventlayer.dropped":          d["eventlayer.dropped"],

		"storage.insert_us":          c.tInsert.meanUS(),
		"storage.find_ms":            c.tFind.meanUS() / 1000,
		"appserver.write_us":         c.tWrite.meanUS(),
		"appserver.subscribe_ms":     c.tSubscribe.meanUS() / 1000,
		"appserver.dispatch_ms":      0,
		"appserver.events_per_write": per(d["appserver.notifications"], w),
		"appserver.dedup_dropped":    d["appserver.dedup_drops"],
		"appserver.event_dropped":    d["appserver.event_drops"] + d["subscription.dropped"],

		"gateway.deliveries_per_write": per(d["gateway.events.fanout"], w),
		"gateway.fanout_spread_ms":     0,
		"gateway.shed":                 d["gateway.client.drops"],
	}
	if c.srv != nil {
		m["appserver.dispatch_ms"] = c.srv.Metrics().Breakdown().Appserver.AvgMS
	}
	if sp := c.spread.values(); len(sp) > 0 {
		m["gateway.fanout_spread_ms"] = mean(sp)
	}
	for _, comp := range []string{"write-ingest", "match", "sort", "query-ingest"} {
		m["topology.executed_per_write."+comp] = per(d["exec."+comp], w)
	}
	for _, comp := range queueComponents {
		m["topology.queue_max."+comp] = d["topology.queue_max."+comp]
	}
	return m
}
