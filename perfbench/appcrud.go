package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/query"
)

// app-crud: the single-process stack invalidb.Open builds, preloaded with
// documents and holding unsorted subscriptions of three shapes. The load is
// a CRUD mix through appserver.Server plus a trickle of subscribe/close, so
// storage commits, bootstrap reads and appserver dispatch run side by side
// while matching stays light.
const (
	acTenant     = "bench"
	acCollection = "items"
	acQP, acWP   = 2, 2
	acDocs       = 5_000
	acSubs       = 300
	acRate       = 400 // fixed-rate writes per second
	acChurnEvery = 80  // one subscribe/close pair per 80 ops: 5/s
	acChurnPool  = 10  // transient subscriptions kept open
	acWindow     = 16  // closed-loop writes in flight
)

type acSub struct {
	id   int
	spec query.Spec
	q    *query.Query
	sub  *appserver.Subscription
	done chan struct{} // closed when the receiver drained the event stream
}

// acPending tracks one closed-loop write until every subscription it
// notifies has taken its event in.
type acPending struct {
	expect map[int]bool
	done   chan int
}

// acWrite remembers the latest write to a key, so remove events — which
// carry no document — can be attributed to it.
type acWrite struct {
	op  int64
	due int64
}

type appCRUD struct {
	common
	rng *rand.Rand
	st  *stack
	tap *tap

	// The benchmark's model of the collection, touched only by the sender.
	live  []string
	index map[string]int
	docs  map[string]document.Document

	subsMu    sync.Mutex
	subs      map[int]*acSub
	transient []*acSub
	nextSub   int
	recvWG    sync.WaitGroup

	lastWrite sync.Map // key -> acWrite
	lastEvent atomic.Int64

	pendMu  sync.Mutex
	pending map[string]*acPending
}

func newAppCRUD(seed int64) workload {
	return &appCRUD{
		rng:     rand.New(rand.NewSource(seed)),
		index:   map[string]int{},
		docs:    map[string]document.Document{},
		subs:    map[int]*acSub{},
		pending: map[string]*acPending{},
	}
}

func (a *appCRUD) rate() float64 { return acRate }

func (a *appCRUD) randomDoc(key string) document.Document {
	return document.Document{
		"_id":    key,
		"cat":    a.rng.Int63n(30),
		"score":  a.rng.Int63n(10_000),
		"region": a.rng.Int63n(10),
		"n":      int64(-1),
		"t":      int64(0),
	}
}

// randomSpec draws one of the three subscription shapes; each matches
// about 3.3% of the documents, so a document sits in about 10 results.
func randomSpec(rng *rand.Rand) query.Spec {
	var f map[string]any
	switch rng.Intn(3) {
	case 0:
		f = map[string]any{"cat": rng.Int63n(30)}
	case 1:
		lo := rng.Int63n(9_667)
		f = map[string]any{"score": map[string]any{"$gte": lo, "$lt": lo + 333}}
	default:
		lo := rng.Int63n(6_667)
		f = map[string]any{"region": rng.Int63n(10), "score": map[string]any{"$gte": lo, "$lt": lo + 3_333}}
	}
	return query.Spec{Collection: acCollection, Filter: f}
}

func (a *appCRUD) setup() error {
	st, err := openStack(acTenant, acQP, acWP)
	if err != nil {
		return err
	}
	a.st = st
	a.bus, a.cl, a.srv = st.bus, st.cl, st.srv
	if a.traced {
		a.tap, err = startTap(&a.common, st.bus, st.cl.Topics().Notify(acTenant), a.writeOf)
		if err != nil {
			return err
		}
	}
	a.extra = func(out map[string]float64) {
		a.subsMu.Lock()
		for _, s := range a.subs {
			out["subscription.dropped"] += float64(s.sub.Dropped())
		}
		a.subsMu.Unlock()
	}
	coll := st.srv.DB().C(acCollection)
	for i := 0; i < acDocs; i++ {
		key := fmt.Sprintf("d%05d", i)
		d := a.randomDoc(key)
		start := time.Now()
		_, err := coll.Insert(d.Clone())
		a.tInsert.add(time.Since(start))
		if err != nil {
			return err
		}
		a.addLive(key, d)
	}
	for i := 0; i < acSubs; i++ {
		if _, err := a.subscribe(randomSpec(a.rng), time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

func (a *appCRUD) addLive(key string, d document.Document) {
	a.index[key] = len(a.live)
	a.live = append(a.live, key)
	a.docs[key] = d
}

func (a *appCRUD) removeLive(key string) {
	i := a.index[key]
	last := a.live[len(a.live)-1]
	a.live[i] = last
	a.index[last] = i
	a.live = a.live[:len(a.live)-1]
	delete(a.index, key)
	delete(a.docs, key)
}

// subscribe opens a subscription and starts its receiver. A non-zero
// start makes the receiver record start→initial as a subscribe sample.
func (a *appCRUD) subscribe(spec query.Spec, start time.Time) (*acSub, error) {
	q, err := query.Compile(spec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sub, err := a.srv.Subscribe(spec)
	a.tSubscribe.add(time.Since(t0))
	if err != nil {
		return nil, err
	}
	a.subsMu.Lock()
	s := &acSub{id: a.nextSub, spec: spec, q: q, sub: sub, done: make(chan struct{})}
	a.nextSub++
	a.subs[s.id] = s
	a.subsMu.Unlock()
	a.recvWG.Add(1)
	go a.receive(s, start)
	return s, nil
}

// receive consumes one subscription's events: latency samples from each
// write's due time, and closed-loop completions.
func (a *appCRUD) receive(s *acSub, start time.Time) {
	defer a.recvWG.Done()
	defer close(s.done)
	for ev := range s.sub.C() {
		recv := time.Now()
		a.lastEvent.Store(recv.UnixNano())
		ph := a.phase()
		var op, due int64
		switch ev.Type {
		case appserver.EventInitial:
			if ph != nil && !start.IsZero() {
				ph.subscribe.add(recv.Sub(start))
			}
			continue
		case appserver.EventAdd, appserver.EventChange:
			var ok1, ok2 bool
			op, ok1 = docInt(ev.Doc, "n")
			due, ok2 = docInt(ev.Doc, "t")
			if !ok1 || !ok2 {
				a.fail("subscription %d: %s event for %s without op stamp", s.id, ev.Type, ev.Key)
				continue
			}
		case appserver.EventRemove:
			v, ok := a.lastWrite.Load(ev.Key)
			if !ok {
				a.fail("subscription %d: remove of %s, which no write touched", s.id, ev.Key)
				continue
			}
			op, due = v.(acWrite).op, v.(acWrite).due
		default:
			a.fail("subscription %d: unexpected %s event: %v", s.id, ev.Type, ev.Err)
			continue
		}
		a.complete(ev.Key, s.id)
		if ph != nil {
			ph.notify.add(time.Duration(recv.UnixNano() - due))
			ph.tr.child(op, "appserver.deliver", due, recv.UnixNano())
		}
	}
}

// writeOf attributes a tapped notification to its write.
func (a *appCRUD) writeOf(n *core.Notification) (int64, bool) {
	if n.Doc != nil {
		return docInt(n.Doc, "n")
	}
	if v, ok := a.lastWrite.Load(n.Key); ok {
		return v.(acWrite).op, true
	}
	return 0, false
}

// acOp is one generated write.
type acOp struct {
	kind   byte // 'u'pdate, 'i'nsert, 'd'elete
	key    string
	update map[string]any
	doc    document.Document
}

// nextOp draws op k: 70% $set updates, 15% inserts, 15% deletes of live
// keys. It advances the model.
func (a *appCRUD) nextOp(k int, due time.Time) (acOp, document.Document, document.Document) {
	r := a.rng.Float64()
	switch {
	case r < 0.70 || len(a.live) < acDocs/2:
		key := a.live[a.rng.Intn(len(a.live))]
		set := map[string]any{"score": a.rng.Int63n(10_000), "n": int64(k), "t": due.UnixNano()}
		if a.rng.Intn(5) == 0 {
			set["cat"] = a.rng.Int63n(30)
		}
		before := a.docs[key]
		after := document.Document{}
		for f, v := range before {
			after[f] = v
		}
		for f, v := range set {
			after[f] = v
		}
		a.docs[key] = after
		return acOp{kind: 'u', key: key, update: map[string]any{"$set": set}}, before, after
	case r < 0.85:
		key := fmt.Sprintf("n%07d", k)
		d := a.randomDoc(key)
		d["n"], d["t"] = int64(k), due.UnixNano()
		a.addLive(key, d)
		return acOp{kind: 'i', key: key, doc: d}, nil, d
	default:
		key := a.live[a.rng.Intn(len(a.live))]
		before := a.docs[key]
		a.removeLive(key)
		return acOp{kind: 'd', key: key}, before, nil
	}
}

// write sends op k through the application server.
func (a *appCRUD) write(k int, op acOp, due time.Time) {
	a.attempt()
	a.lastWrite.Store(op.key, acWrite{op: int64(k), due: due.UnixNano()})
	t0 := time.Now()
	var err error
	switch op.kind {
	case 'u':
		err = a.srv.Update(acCollection, op.key, op.update)
	case 'i':
		err = a.srv.Insert(acCollection, op.doc.Clone())
	case 'd':
		err = a.srv.Delete(acCollection, op.key)
	}
	t1 := time.Now()
	a.tWrite.add(t1.Sub(t0))
	if err != nil {
		a.fail("write %d (%c %s): %v", k, op.kind, op.key, err)
		return
	}
	if ph := a.phase(); ph != nil {
		ph.tr.child(int64(k), "appserver.write", t0.UnixNano(), t1.UnixNano())
	}
}

func (a *appCRUD) op(k int, due time.Time) {
	if k%acChurnEvery == 0 {
		a.churn()
	}
	op, _, _ := a.nextOp(k, due)
	a.write(k, op, due)
}

// churn opens one transient subscription and, once the pool is full,
// closes the oldest.
func (a *appCRUD) churn() {
	a.attempt()
	s, err := a.subscribe(randomSpec(a.rng), time.Now())
	if err != nil {
		a.fail("churn subscribe: %v", err)
		return
	}
	a.transient = append(a.transient, s)
	if len(a.transient) > acChurnPool {
		old := a.transient[0]
		a.transient = a.transient[1:]
		a.subsMu.Lock()
		delete(a.subs, old.id)
		a.subsMu.Unlock()
		_ = old.sub.Close()
		<-old.done
	}
}

// complete credits an event to the closed-loop write in flight on key.
func (a *appCRUD) complete(key string, sub int) {
	a.pendMu.Lock()
	defer a.pendMu.Unlock()
	p := a.pending[key]
	if p == nil || !p.expect[sub] {
		return
	}
	delete(p.expect, sub)
	if len(p.expect) == 0 {
		delete(a.pending, key)
		p.done <- 1
	}
}

// settle waits until no event arrived for 150ms (at most 3s).
func (a *appCRUD) settle() {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if time.Since(time.Unix(0, a.lastEvent.Load())) > 150*time.Millisecond {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// capacity keeps acWindow writes in flight; a write completes once every
// open subscription whose result it enters, changes or leaves has taken
// its event in. Two writes never share a key in flight: an op on a busy
// key waits for the earlier one, so the op sequence stays seed-determined.
func (a *appCRUD) capacity(k int, d time.Duration) []time.Time {
	done := make(chan int, acWindow)
	inflight := 0
	var completed []time.Time
	end := time.Now().Add(d)
	a.subsMu.Lock()
	open := make([]*acSub, 0, len(a.subs))
	for _, s := range a.subs {
		open = append(open, s)
	}
	a.subsMu.Unlock()
	wait := func(timeout time.Duration) bool {
		select {
		case <-done:
			inflight--
			completed = append(completed, time.Now())
			return true
		case <-time.After(timeout):
			return false
		}
	}
	for time.Now().Before(end) {
		if inflight >= acWindow {
			wait(time.Until(end))
			continue
		}
		due := time.Now()
		op, before, after := a.nextOp(k, due)
		for {
			a.pendMu.Lock()
			busy := a.pending[op.key] != nil
			a.pendMu.Unlock()
			if !busy || !wait(5*time.Second) {
				break
			}
		}
		expect := map[int]bool{}
		for _, s := range open {
			if (before != nil && s.q.Match(before)) || (after != nil && s.q.Match(after)) {
				expect[s.id] = true
			}
		}
		if len(expect) > 0 {
			a.pendMu.Lock()
			a.pending[op.key] = &acPending{expect: expect, done: done}
			a.pendMu.Unlock()
			inflight++
		} else {
			completed = append(completed, time.Now())
		}
		a.write(k, op, due)
		k++
	}
	for inflight > 0 && wait(5*time.Second) {
	}
	if inflight > 0 {
		a.fail("closed loop: %d writes never completed", inflight)
	}
	return completed
}

// diffResults describes how a maintained result differs from the pull
// query's, comparing documents by their JSON encoding; "" when they are
// equal.
func diffResults(got, want []document.Document) (string, error) {
	index := func(docs []document.Document) (map[string][]byte, error) {
		out := make(map[string][]byte, len(docs))
		for _, d := range docs {
			b, err := json.Marshal(d)
			if err != nil {
				return nil, err
			}
			id, _ := d.ID()
			out[id] = b
		}
		return out, nil
	}
	g, err := index(got)
	if err != nil {
		return "", err
	}
	w, err := index(want)
	if err != nil {
		return "", err
	}
	var diffs []string
	for key, wb := range w {
		switch gb, ok := g[key]; {
		case !ok:
			diffs = append(diffs, "missing "+string(wb))
		case !bytes.Equal(gb, wb):
			diffs = append(diffs, fmt.Sprintf("holds %s where the database has %s", gb, wb))
		}
	}
	for key, gb := range g {
		if _, ok := w[key]; !ok {
			diffs = append(diffs, "extra "+string(gb))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; "), nil
}

// diverged compares a subscription's maintained result with the pull query.
func (a *appCRUD) diverged(s *acSub) (string, error) {
	start := time.Now()
	want, err := a.srv.Query(s.spec)
	a.tFind.add(time.Since(start))
	if err != nil {
		return "", err
	}
	return diffResults(s.sub.Result(), want)
}

// check quiesces and verifies snapshot equivalence: every open
// subscription's maintained result equals the pull query for its spec.
func (a *appCRUD) check() {
	a.settle()
	a.subsMu.Lock()
	open := make([]*acSub, 0, len(a.subs))
	for _, s := range a.subs {
		open = append(open, s)
	}
	a.subsMu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })
	var suspects []*acSub
	for _, s := range open {
		if diff, err := a.diverged(s); diff != "" || err != nil {
			suspects = append(suspects, s)
		}
		if d := s.sub.Dropped(); d > 0 {
			a.failN(int(d), "subscription %d dropped %d events", s.id, d)
		}
	}
	if len(suspects) > 0 {
		// Give a lagging event stream time to converge before calling a
		// difference a divergence.
		time.Sleep(time.Second)
		a.settle()
	}
	for _, s := range suspects {
		diff, err := a.diverged(s)
		if err != nil {
			a.fail("subscription %d: pull query: %v", s.id, err)
		} else if diff != "" {
			a.fail("subscription %d (%v): maintained result differs from the pull query: %s", s.id, s.spec.Filter, diff)
		}
	}
}

func (a *appCRUD) close() {
	if a.st != nil {
		a.st.close()
	}
	a.tap.close()
	a.recvWG.Wait()
}
