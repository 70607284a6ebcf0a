package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
)

// grid-match: a standalone cluster (QP 2 x WP 2) spoken to over its bus
// topics, as in the paper's §6.1 set-up. Standing range queries that never
// match make the matching grid do nearly all the work; every write is a
// probe insert that matches exactly one probe query.
const (
	gmTenant     = "bench"
	gmCollection = "test"
	gmQP, gmWP   = 2, 2
	gmQueries    = 5000 // standing range queries, never notified
	gmProbes     = 100  // probe queries; write k targets probe k % gmProbes
	gmRate       = 150  // fixed-rate inserts per second
	gmActEvery   = 15   // every 15th fixed-rate op activates a new probe query
	gmWindow     = 32   // closed-loop writes in flight
	// gmActBase offsets activation probe values past the regular probes.
	gmActBase = 1_000_000
)

// gmProbe is the ledger entry of one probe insert.
type gmProbe struct {
	query uint64 // the only query allowed to notify it
	due   int64
	// subAt is when the activation subscribe was published (0 for regular
	// probes).
	subAt int64
	// pubEnd is when the write's Publish returned (traced spans).
	pubEnd int64
	adds   int
	// done is signalled on the first add of a closed-loop write.
	done chan struct{}
}

type gridMatch struct {
	common
	rng    *rand.Rand
	bus    *countingBus
	topics core.Topics
	notif  eventlayer.Subscription
	recvWG sync.WaitGroup

	probeHash []uint64

	mu     sync.Mutex
	ledger map[int]*gmProbe
	acts   int
}

func newGridMatch(seed int64) workload {
	return &gridMatch{rng: rand.New(rand.NewSource(seed)), ledger: map[int]*gmProbe{}}
}

func (g *gridMatch) rate() float64 { return gmRate }

func (g *gridMatch) setup() error {
	g.bus = newCountingBus()
	g.common.bus = g.bus
	cl, err := core.NewCluster(g.bus, core.Options{QueryPartitions: gmQP, WritePartitions: gmWP})
	if err != nil {
		return err
	}
	if err := cl.Start(); err != nil {
		return err
	}
	g.cl = cl
	g.topics = cl.Topics()
	g.notif, err = g.bus.Subscribe(g.topics.Notify(gmTenant))
	if err != nil {
		return err
	}
	g.recvWG.Add(1)
	go g.receive()

	specs := make([]query.Spec, 0, gmQueries+gmProbes)
	for i := 0; i < gmQueries; i++ {
		lo := g.rng.Int63n(1_000_000)
		specs = append(specs, rangeSpec("r", lo, lo+1+g.rng.Int63n(1000)))
	}
	for i := 0; i < gmProbes; i++ {
		h, err := g.hash(rangeSpec("p", int64(i), int64(i)+1))
		if err != nil {
			return err
		}
		g.probeHash = append(g.probeHash, h)
		specs = append(specs, rangeSpec("p", int64(i), int64(i)+1))
	}
	return g.register(specs)
}

func rangeSpec(field string, lo, hi int64) query.Spec {
	return query.Spec{Collection: gmCollection, Filter: map[string]any{
		field: map[string]any{"$gte": lo, "$lt": hi},
	}}
}

func (g *gridMatch) hash(spec query.Spec) (uint64, error) {
	q, err := query.Compile(spec)
	if err != nil {
		return 0, err
	}
	return core.TenantQueryHash(gmTenant, q), nil
}

// subscribeEnvelope encodes a subscribe request for spec.
func (g *gridMatch) subscribeEnvelope(sid string, spec query.Spec) ([]byte, error) {
	env := &core.Envelope{Kind: core.KindSubscribe, Subscribe: &core.SubscribeRequest{
		Tenant: gmTenant, SubscriptionID: sid, Query: spec,
		TTLMillis: (10 * time.Minute).Milliseconds(),
	}}
	return env.Encode()
}

// queryIngested counts subscribe requests the query-ingest stage executed.
func (g *gridMatch) queryIngested() uint64 {
	var n uint64
	for _, s := range g.cl.Stats() {
		if s.Component == "query-ingest" {
			n += s.Executed
		}
	}
	return n
}

// register publishes the standing queries, flow-controlled against the
// query-ingest stage so the default bus buffer never overflows, and waits
// until every one is installed.
func (g *gridMatch) register(specs []query.Spec) error {
	const window = 1024
	deadline := time.Now().Add(60 * time.Second)
	for i, spec := range specs {
		data, err := g.subscribeEnvelope(fmt.Sprintf("q%d", i), spec)
		if err != nil {
			return err
		}
		for uint64(i)-g.queryIngested() >= window {
			if time.Now().After(deadline) {
				return fmt.Errorf("query ingestion stalled")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := g.bus.Publish(g.topics.Queries(), data); err != nil {
			return err
		}
	}
	for g.queryIngested() < uint64(len(specs)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("query ingestion did not finish")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// probeDoc is probe insert k: it matches only the probe query on value v.
func probeDoc(k int, v int64, due time.Time) document.Document {
	d := document.Document{
		"_id": "p" + strconv.Itoa(k),
		"p":   v,
		"r":   int64(-1), // below every standing range
		"t":   due.UnixNano(),
	}
	for i := 0; i < 5; i++ {
		d["s"+strconv.Itoa(i)] = fmt.Sprintf("%010d", (k*7919+i*104729)%1_000_000_007)
		d["i"+strconv.Itoa(i)] = int64(k*31 + i)
	}
	return d
}

// send publishes probe insert k for query value v, recording its ledger
// entry first.
func (g *gridMatch) send(k int, v int64, q uint64, due time.Time, subAt int64, done chan struct{}) {
	g.attempt()
	entry := &gmProbe{query: q, due: due.UnixNano(), subAt: subAt, done: done}
	g.mu.Lock()
	g.ledger[k] = entry
	g.mu.Unlock()
	ph := g.phase()
	doc := probeDoc(k, v, due)
	t0 := time.Now()
	env := &core.Envelope{Kind: core.KindWrite, Write: &core.WriteEvent{
		Tenant: gmTenant,
		Image: &document.AfterImage{
			Collection: gmCollection, Key: doc["_id"].(string),
			Version: 1, Op: document.OpInsert, Doc: doc,
		},
		SentNs: t0.UnixNano(),
	}}
	data, err := env.Encode()
	t1 := time.Now()
	g.tEncode.add(t1.Sub(t0))
	if err != nil {
		g.fail("encode write %d: %v", k, err)
		return
	}
	err = g.bus.Publish(g.topics.Writes(), data)
	t2 := time.Now()
	g.tPublish.add(t2.Sub(t1))
	if err != nil {
		g.fail("publish write %d: %v", k, err)
		return
	}
	g.mu.Lock()
	entry.pubEnd = t2.UnixNano()
	g.mu.Unlock()
	if ph != nil {
		ph.tr.child(int64(k), "wire.encode", t0.UnixNano(), t1.UnixNano())
		ph.tr.child(int64(k), "eventlayer.publish", t1.UnixNano(), t2.UnixNano())
	}
}

func (g *gridMatch) op(k int, due time.Time) {
	if k%gmActEvery != gmActEvery-1 {
		g.send(k, int64(k%gmProbes), g.probeHash[k%gmProbes], due, 0, nil)
		return
	}
	// Activation: subscribe a fresh probe query, then insert the one
	// document it matches. The add arrives whether the insert is matched
	// live or replayed from retention at install time.
	g.attempt()
	g.acts++
	v := int64(gmActBase + g.acts)
	spec := rangeSpec("p", v, v+1)
	h, err := g.hash(spec)
	if err != nil {
		g.fail("activation %d: %v", k, err)
		return
	}
	data, err := g.subscribeEnvelope(fmt.Sprintf("a%d", g.acts), spec)
	if err != nil {
		g.fail("activation %d: %v", k, err)
		return
	}
	subAt := time.Now().UnixNano()
	if err := g.bus.Publish(g.topics.Queries(), data); err != nil {
		g.fail("activation %d: %v", k, err)
		return
	}
	g.send(k, v, h, due, subAt, nil)
}

// receive is the benchmark's notification subscriber: it decodes every
// message itself and checks each add against the probe ledger.
func (g *gridMatch) receive() {
	defer g.recvWG.Done()
	for msg := range g.notif.C() {
		recv := time.Now()
		env, err := core.DecodeEnvelope(msg.Payload)
		decEnd := time.Now()
		g.tDecode.add(decEnd.Sub(recv))
		if err != nil {
			g.fail("decode notification: %v", err)
			continue
		}
		if env.Kind == core.KindNotification {
			g.note(env.Notification, recv, decEnd)
		}
	}
}

// note books one notification against the probe ledger: it must be the
// add of a known probe insert on that insert's own probe query.
func (g *gridMatch) note(n *core.Notification, recv, decEnd time.Time) {
	k, err := strconv.Atoi(strings.TrimPrefix(n.Key, "p"))
	hash, _ := core.ParseQueryID(n.QueryID)
	g.mu.Lock()
	entry := g.ledger[k]
	if err != nil || entry == nil || !strings.HasPrefix(n.Key, "p") || n.Type != core.MatchAdd || hash != entry.query {
		g.mu.Unlock()
		g.fail("stray notification %s on %s for key %q", n.Type, n.QueryID, n.Key)
		return
	}
	entry.adds++
	first := entry.adds == 1
	pubEnd := entry.pubEnd
	g.mu.Unlock()
	if n.WriteNs != 0 && n.IngestNs != 0 && n.MatchNs != 0 {
		g.stampIngest.add(time.Duration(n.IngestNs - n.WriteNs))
		g.stampGrid.add(time.Duration(n.MatchNs - n.IngestNs))
		g.stampBus.add(time.Duration(recv.UnixNano() - n.MatchNs))
	}
	if !first {
		return
	}
	if entry.done != nil {
		entry.done <- struct{}{}
	}
	ph := g.phase()
	if ph == nil {
		return
	}
	if entry.subAt != 0 {
		ph.subscribe.add(time.Duration(recv.UnixNano() - entry.subAt))
	} else {
		ph.notify.add(time.Duration(recv.UnixNano() - entry.due))
	}
	if ph.tr != nil {
		w := int64(k)
		start := n.WriteNs
		if pubEnd > start {
			start = pubEnd
		}
		ph.tr.child(w, "core.ingest", start, n.IngestNs)
		ph.tr.child(w, "core.grid", n.IngestNs, n.MatchNs)
		ph.tr.child(w, "eventlayer.bus", n.MatchNs, recv.UnixNano())
		ph.tr.child(w, "wire.decode", recv.UnixNano(), decEnd.UnixNano())
	}
}

// pending counts ledger entries still waiting for their add.
func (g *gridMatch) pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, e := range g.ledger {
		if e.adds == 0 {
			n++
		}
	}
	return n
}

func (g *gridMatch) settle() {
	deadline := time.Now().Add(3 * time.Second)
	for g.pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func (g *gridMatch) capacity(k int, d time.Duration) []time.Time {
	done := make(chan struct{}, gmWindow)
	inflight := 0
	var completed []time.Time
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if inflight < gmWindow {
			g.send(k, int64(k%gmProbes), g.probeHash[k%gmProbes], time.Now(), 0, done)
			k++
			inflight++
			continue
		}
		select {
		case <-done:
			inflight--
			completed = append(completed, time.Now())
		case <-time.After(time.Until(end)):
		}
	}
	// Drain the window so nothing is in flight when the check starts.
	for ; inflight > 0; inflight-- {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return completed
		}
	}
	return completed
}

// check waits for quiescence and verifies the probe ledger exactly: every
// probe insert produced exactly one add, on its own probe query, and no
// other query was notified (strays fail as they arrive).
func (g *gridMatch) check() {
	g.settle()
	// Anything still in flight — a duplicate or a stray — lands within a
	// few milliseconds; wait a little past quiescence.
	time.Sleep(200 * time.Millisecond)
	g.mu.Lock()
	keys := make([]int, 0, len(g.ledger))
	for k := range g.ledger {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var bad []string
	for _, k := range keys {
		if e := g.ledger[k]; e.adds != 1 {
			bad = append(bad, fmt.Sprintf("probe insert %d: %d adds, want exactly 1", k, e.adds))
		}
	}
	g.mu.Unlock()
	for _, msg := range bad {
		g.fail("%s", msg)
	}
}

func (g *gridMatch) close() {
	if g.cl != nil {
		g.cl.Stop()
	}
	if g.bus != nil {
		_ = g.bus.Close()
	}
	g.recvWG.Wait()
}
