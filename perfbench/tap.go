package main

import (
	"sync"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
)

// tap is the traced runs' extra subscriber on a tenant's notification
// topic. It decodes each notification with core.DecodeEnvelope, as any bus
// client would, and turns the stage stamps the cluster put on it into the
// ingest, grid and bus spans of the write that caused it. Untraced runs do
// not start one, so they pay nothing for it.
type tap struct {
	sub eventlayer.Subscription
	wg  sync.WaitGroup
}

// startTap subscribes to topic; writeOf maps a notification to the op index
// of the write that caused it.
func startTap(c *common, bus eventlayer.Bus, topic string, writeOf func(n *core.Notification) (int64, bool)) (*tap, error) {
	sub, err := bus.Subscribe(topic)
	if err != nil {
		return nil, err
	}
	t := &tap{sub: sub}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for msg := range sub.C() {
			recv := time.Now()
			env, err := core.DecodeEnvelope(msg.Payload)
			c.tDecode.add(time.Since(recv))
			if err != nil {
				c.fail("tap: decode notification: %v", err)
				continue
			}
			if env.Kind != core.KindNotification {
				continue
			}
			n := env.Notification
			if n.WriteNs == 0 || n.IngestNs == 0 || n.MatchNs == 0 {
				continue
			}
			c.stampIngest.add(time.Duration(n.IngestNs - n.WriteNs))
			c.stampGrid.add(time.Duration(n.MatchNs - n.IngestNs))
			c.stampBus.add(time.Duration(recv.UnixNano() - n.MatchNs))
			ph := c.phase()
			if ph == nil || ph.tr == nil {
				continue
			}
			w, ok := writeOf(n)
			if !ok {
				continue
			}
			ph.tr.child(w, "core.ingest", n.WriteNs, n.IngestNs)
			ph.tr.child(w, "core.grid", n.IngestNs, n.MatchNs)
			ph.tr.child(w, "eventlayer.bus", n.MatchNs, recv.UnixNano())
		}
	}()
	return t, nil
}

func (t *tap) close() {
	if t == nil {
		return
	}
	_ = t.sub.Close()
	t.wg.Wait()
}

// docInt reads an integer field of a document as decoded from the wire:
// int64 from the binary format, float64 from the JSON one.
func docInt(d map[string]any, field string) (int64, bool) {
	switch v := d[field].(type) {
	case int64:
		return v, true
	case float64:
		return int64(v), true
	}
	return 0, false
}
