package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/gateway"
	"invalidb/internal/query"
)

// edge-fanout: the gateway over two in-memory connections holding many
// client subscriptions on a few distinct queries. Each update fans out to
// every client of its query, so the gateway's encode-once, queueing and
// write path does most of the work while matching and storage stay trivial.
const (
	efTenant     = "bench"
	efCollection = "feed"
	efQP, efWP   = 2, 2
	efGroups     = 20   // distinct queries
	efDocsPer    = 20   // documents per query result
	efClients    = 2000 // standing client subscriptions, 100 per query
	efConns      = 2
	efRate       = 100 // fixed-rate updates per second
	efChurnEvery = 10  // one subscribe/unsubscribe pair per 10 ops: 10/s
	efChurnPool  = 10  // transient client subscriptions kept open
	// efWindow is the closed-loop updates in flight. Each update queues
	// about 8.4 KB per connection, so three stay well inside the gateway's
	// default 64 KiB per-connection budget even if a reader falls behind.
	efWindow      = 3
	efSetupBudget = 60 * time.Second
)

type efClient struct {
	id    string
	group int
	conn  int
	open  bool
	start time.Time // subscribe send time; zero for standing clients
	ready bool      // initial result received
	// last holds the raw JSON of the last event per document key.
	last map[string][]byte
}

// efWrite is the ledger entry of one update.
type efWrite struct {
	key         string
	due         int64
	expected    int // open clients of its query when sent
	got         int
	first, last int64
	done        chan string // receives key once every client has the update
}

type edgeFanout struct {
	common
	rng *rand.Rand
	st  *stack
	ln  *gateway.MemListener
	tap *tap

	conns    []net.Conn
	writeMus []sync.Mutex
	readWG   sync.WaitGroup

	// mu guards the client and write ledgers, shared by the sender and the
	// connection readers.
	mu        sync.Mutex
	clients   map[string]*efClient
	openCount [efGroups]int
	ready     int
	writes    map[int64]*efWrite
	transient []*efClient
	churned   int
	lastFrame atomic.Int64
}

func newEdgeFanout(seed int64) workload {
	return &edgeFanout{
		rng:     rand.New(rand.NewSource(seed)),
		clients: map[string]*efClient{}, writes: map[int64]*efWrite{},
	}
}

func (e *edgeFanout) rate() float64 { return efRate }

func groupSpec(g int) query.Spec {
	return query.Spec{Collection: efCollection, Filter: map[string]any{"g": int64(g)}}
}

func docKey(g, i int) string { return fmt.Sprintf("g%02d-%02d", g, i) }

func (e *edgeFanout) setup() error {
	st, err := openStack(efTenant, efQP, efWP)
	if err != nil {
		return err
	}
	e.st = st
	e.bus, e.cl, e.srv = st.bus, st.cl, st.srv
	if e.traced {
		e.tap, err = startTap(&e.common, st.bus, st.cl.Topics().Notify(efTenant), func(n *core.Notification) (int64, bool) {
			return docInt(n.Doc, "n")
		})
		if err != nil {
			return err
		}
	}
	coll := st.srv.DB().C(efCollection)
	for g := 0; g < efGroups; g++ {
		for i := 0; i < efDocsPer; i++ {
			start := time.Now()
			_, err := coll.Insert(map[string]any{
				"_id": docKey(g, i), "g": int64(g), "n": int64(-1), "t": int64(0),
				"body": fmt.Sprintf("%032x", e.rng.Uint64()),
			})
			e.tInsert.add(time.Since(start))
			if err != nil {
				return err
			}
		}
	}
	e.ln = gateway.NewMemListener()
	e.gw, err = gateway.ServeListener(st.srv, e.ln, gateway.Options{})
	if err != nil {
		return err
	}
	e.writeMus = make([]sync.Mutex, efConns)
	for i := 0; i < efConns; i++ {
		nc, err := e.ln.Dial()
		if err != nil {
			return err
		}
		e.conns = append(e.conns, nc)
		e.readWG.Add(1)
		go e.read(i, nc)
	}
	for i := 0; i < efClients; i++ {
		// Every query's clients are split evenly over the connections.
		if err := e.subscribe(fmt.Sprintf("c%d", i), i%efGroups, i/efGroups%efConns, time.Time{}); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(efSetupBudget)
	for {
		e.mu.Lock()
		n := e.ready
		e.mu.Unlock()
		if n == efClients {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d client subscriptions got their initial result", n, efClients)
		}
		time.Sleep(time.Millisecond)
	}
}

// frame sends one request frame on connection i.
func (e *edgeFanout) frame(i int, req gateway.Request) error {
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	e.writeMus[i].Lock()
	defer e.writeMus[i].Unlock()
	_, err = e.conns[i].Write(append(data, '\n'))
	return err
}

// subscribe registers client id on query group g over connection conn. A
// non-zero start records start→initial as a subscribe sample.
func (e *edgeFanout) subscribe(id string, g, conn int, start time.Time) error {
	c := &efClient{id: id, group: g, conn: conn, open: true, start: start, last: map[string][]byte{}}
	e.mu.Lock()
	e.clients[id] = c
	e.openCount[g]++
	e.mu.Unlock()
	spec := groupSpec(g)
	return e.frame(conn, gateway.Request{Op: "subscribe", ID: id, Query: &spec})
}

// read scans connection i's frames.
func (e *edgeFanout) read(i int, nc net.Conn) {
	defer e.readWG.Done()
	br := bufio.NewReaderSize(nc, 64<<10)
	var long []byte
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long, line...)
			continue
		}
		if err != nil {
			return
		}
		if long != nil {
			line = append(long, line...)
			long = nil
		}
		recv := time.Now()
		e.lastFrame.Store(recv.UnixNano())
		e.handle(i, line, recv)
	}
}

func (e *edgeFanout) handle(conn int, line []byte, recv time.Time) {
	if !bytes.HasPrefix(line, eventPrefix) {
		switch {
		case bytes.HasPrefix(line, []byte(`{"op":"ok"`)):
		case bytes.HasPrefix(line, []byte(`{"op":"resync"`)):
			e.fail("connection %d: events shed, resync requested: %s", conn, bytes.TrimSpace(line))
		default:
			e.fail("connection %d: unexpected frame %s", conn, bytes.TrimSpace(line))
		}
		return
	}
	id, _ := stringField(line, "id")
	typ, _ := stringField(line, "type")
	ph := e.phase()
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.clients[id]
	if c == nil || !c.open {
		return // a closed transient client's trailing events
	}
	switch typ {
	case "initial":
		eachArrayObject(line, "docs", func(obj []byte) {
			if key, ok := stringField(obj, "_id"); ok {
				c.last[key] = append([]byte(nil), obj...)
			}
		})
		if !c.ready {
			c.ready = true
			e.ready++
			if ph != nil && !c.start.IsZero() {
				ph.subscribe.add(recv.Sub(c.start))
			}
		}
	case "add", "change":
		key, ok1 := stringField(line, "key")
		doc, ok2 := objectField(line, "doc")
		if !ok1 || !ok2 {
			e.fail("client %s: malformed %s frame", id, typ)
			return
		}
		c.last[key] = append([]byte(nil), doc...)
		op, ok := intField(doc, "n")
		w := e.writes[op]
		if !ok || w == nil {
			return // the preloaded version, re-sent on a join race
		}
		w.got++
		r := recv.UnixNano()
		if w.first == 0 {
			w.first = r
		}
		w.last = r
		if w.got == w.expected && w.done != nil {
			w.done <- w.key
		}
		if ph != nil {
			ph.notify.add(time.Duration(r - w.due))
			ph.tr.child(op, "gateway.deliver", w.due, r)
		}
	default:
		e.fail("client %s: unexpected %s event", id, typ)
	}
}

// update sends op k: a $set of the op stamp on key.
func (e *edgeFanout) update(k int, key string, g int, due time.Time, done chan string) {
	e.attempt()
	e.mu.Lock()
	e.writes[int64(k)] = &efWrite{key: key, due: due.UnixNano(), expected: e.openCount[g], done: done}
	e.mu.Unlock()
	t0 := time.Now()
	err := e.srv.Update(efCollection, key, map[string]any{"$set": map[string]any{"n": int64(k), "t": due.UnixNano()}})
	t1 := time.Now()
	e.tWrite.add(t1.Sub(t0))
	if err != nil {
		e.fail("update %d on %s: %v", k, key, err)
		return
	}
	if ph := e.phase(); ph != nil {
		ph.tr.child(int64(k), "appserver.write", t0.UnixNano(), t1.UnixNano())
	}
}

func (e *edgeFanout) pick() (string, int) {
	g, i := e.rng.Intn(efGroups), e.rng.Intn(efDocsPer)
	return docKey(g, i), g
}

func (e *edgeFanout) op(k int, due time.Time) {
	if k%efChurnEvery == 0 {
		e.churn()
	}
	key, g := e.pick()
	e.update(k, key, g, due, nil)
}

// churn subscribes one transient client and, once the pool is full,
// unsubscribes the oldest.
func (e *edgeFanout) churn() {
	e.attempt()
	e.churned++
	id := fmt.Sprintf("x%d", e.churned)
	conn := e.churned % efConns
	if err := e.subscribe(id, e.rng.Intn(efGroups), conn, time.Now()); err != nil {
		e.fail("churn subscribe: %v", err)
		return
	}
	e.mu.Lock()
	e.transient = append(e.transient, e.clients[id])
	var old *efClient
	if len(e.transient) > efChurnPool {
		old = e.transient[0]
		e.transient = e.transient[1:]
		old.open = false
		e.openCount[old.group]--
	}
	e.mu.Unlock()
	if old != nil {
		if err := e.frame(old.conn, gateway.Request{Op: "unsubscribe", ID: old.id}); err != nil {
			e.fail("churn unsubscribe: %v", err)
		}
	}
}

// settle waits until no frame arrived for 150ms (at most 3s).
func (e *edgeFanout) settle() {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if time.Since(time.Unix(0, e.lastFrame.Load())) > 150*time.Millisecond {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// capacity keeps efWindow updates in flight, on distinct keys; an update
// completes when every client of its query has its event.
func (e *edgeFanout) capacity(k int, d time.Duration) []time.Time {
	done := make(chan string, efWindow)
	busy := map[string]bool{}
	var completed []time.Time
	end := time.Now().Add(d)
	wait := func(timeout time.Duration) bool {
		select {
		case key := <-done:
			delete(busy, key)
			completed = append(completed, time.Now())
			return true
		case <-time.After(timeout):
			return false
		}
	}
	for time.Now().Before(end) {
		if len(busy) >= efWindow {
			wait(time.Until(end))
			continue
		}
		key, g := e.pick()
		// An update on a key already in flight waits for the earlier one,
		// so the op sequence stays seed-determined.
		for busy[key] && wait(5*time.Second) {
		}
		busy[key] = true
		e.update(k, key, g, time.Now(), done)
		k++
	}
	for len(busy) > 0 && wait(5*time.Second) {
	}
	if len(busy) > 0 {
		e.fail("closed loop: %d updates never reached all their clients", len(busy))
	}
	return completed
}

// check quiesces and verifies that each open client's last event per key
// equals the stored document, for exactly the keys of its query's result.
func (e *edgeFanout) check() {
	e.settle()
	want := make([]map[string][]byte, efGroups)
	for g := range want {
		start := time.Now()
		docs, err := e.srv.Query(groupSpec(g))
		e.tFind.add(time.Since(start))
		if err != nil {
			e.fail("pull query for group %d: %v", g, err)
			return
		}
		want[g] = map[string][]byte{}
		for _, d := range docs {
			b, err := json.Marshal(d)
			if err != nil {
				e.fail("encode stored doc: %v", err)
				return
			}
			id, _ := d.ID()
			want[g][id] = b
		}
	}
	e.mu.Lock()
	ids := make([]string, 0, len(e.clients))
	for id := range e.clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var bad []string
	for _, id := range ids {
		c := e.clients[id]
		if !c.open {
			continue
		}
		if msg := compareState(c.last, want[c.group]); msg != "" {
			bad = append(bad, fmt.Sprintf("client %s (query %d): %s", id, c.group, msg))
		}
	}
	for _, w := range e.writes {
		if w.got > 1 {
			e.spread.add(time.Duration(w.last - w.first))
		}
	}
	e.mu.Unlock()
	for _, msg := range bad {
		e.fail("%s", msg)
	}
	if d := e.gw.Metrics().Counter("gateway.client.drops").Value(); d > 0 {
		e.failN(int(d), "gateway shed %d events", d)
	}
}

// compareState reports how a client's last-event-per-key state differs from
// the stored documents, or "" when it matches exactly.
func compareState(got, want map[string][]byte) string {
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			return "no event for " + key
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("last event for %s is %s, stored doc is %s", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			return "event for " + key + ", which is not in the result"
		}
	}
	return ""
}

func (e *edgeFanout) close() {
	if e.gw != nil {
		_ = e.gw.Close()
	}
	for _, nc := range e.conns {
		_ = nc.Close()
	}
	e.readWG.Wait()
	if e.st != nil {
		e.st.close()
	}
	e.tap.close()
}
