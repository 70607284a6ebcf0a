package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
)

// failures returns a workload's recorded failure count and messages.
func failures(c *common) (int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed, strings.Join(c.failures, "\n")
}

// runOps sends ops [0, n) at a relaxed fixed pace and lets them settle.
func runOps(w workload, n int) {
	start := time.Now()
	p := newPacer(wallClock{}, start, 200)
	p.run(start.Add(time.Duration(n)*5*time.Millisecond), w.op)
	w.settle()
}

func newGridMatchForTest(t *testing.T) *gridMatch {
	t.Helper()
	g := newGridMatch(1).(*gridMatch)
	t.Cleanup(g.close)
	if err := g.setup(); err != nil {
		t.Fatal(err)
	}
	runOps(g, 20) // includes one activation (op 14)
	return g
}

// publishNotification injects a notification on the tenant topic, as a
// faulty or duplicating event layer would deliver it.
func (g *gridMatch) publishNotification(t *testing.T, n *core.Notification) {
	t.Helper()
	data, err := (&core.Envelope{Kind: core.KindNotification, Notification: n}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.bus.Publish(g.topics.Notify(gmTenant), data); err != nil {
		t.Fatal(err)
	}
}

func TestGridMatchLedger(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		g := newGridMatchForTest(t)
		g.check()
		if n, msgs := failures(&g.common); n != 0 {
			t.Fatalf("clean run failed %d checks:\n%s", n, msgs)
		}
	})
	t.Run("missing probe", func(t *testing.T) {
		g := newGridMatchForTest(t)
		g.mu.Lock()
		g.ledger[1000] = &gmProbe{query: g.probeHash[0]} // booked, never sent
		g.mu.Unlock()
		g.check()
		if n, msgs := failures(&g.common); n != 1 || !strings.Contains(msgs, "probe insert 1000: 0 adds") {
			t.Fatalf("missing probe: %d failures:\n%s", n, msgs)
		}
	})
	t.Run("duplicated probe", func(t *testing.T) {
		g := newGridMatchForTest(t)
		g.publishNotification(t, &core.Notification{
			Tenant: gmTenant, QueryID: core.QueryIDString(g.probeHash[3]),
			Type: core.MatchAdd, Key: "p3", Index: -1, Seq: 1,
		})
		g.check()
		if n, msgs := failures(&g.common); n != 1 || !strings.Contains(msgs, "probe insert 3: 2 adds") {
			t.Fatalf("duplicated probe: %d failures:\n%s", n, msgs)
		}
	})
	t.Run("divergence", func(t *testing.T) {
		g := newGridMatchForTest(t)
		// An add for probe 3 on another probe's query.
		g.publishNotification(t, &core.Notification{
			Tenant: gmTenant, QueryID: core.QueryIDString(g.probeHash[4]),
			Type: core.MatchAdd, Key: "p3", Index: -1, Seq: 1,
		})
		g.check()
		if n, msgs := failures(&g.common); n != 1 || !strings.Contains(msgs, "stray notification") {
			t.Fatalf("divergence: %d failures:\n%s", n, msgs)
		}
	})
}

func TestAppCRUDSnapshotEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up the full app-crud deployment")
	}
	a := newAppCRUD(1).(*appCRUD)
	t.Cleanup(a.close)
	if err := a.setup(); err != nil {
		t.Fatal(err)
	}
	runOps(a, 100)
	a.check()
	if n, msgs := failures(&a.common); n != 0 {
		t.Fatalf("clean run failed %d checks:\n%s", n, msgs)
	}
	// Inject a divergence: delete one of subscription 0's documents behind
	// the application server's back, so no notification can follow.
	res := a.subs[0].sub.Result()
	if len(res) == 0 {
		t.Fatal("subscription 0 has an empty result")
	}
	key, _ := res[0].ID()
	if _, err := a.srv.DB().C(acCollection).Delete(key); err != nil {
		t.Fatal(err)
	}
	a.check()
	if n, msgs := failures(&a.common); n < 1 || !strings.Contains(msgs, "subscription 0 ") {
		t.Fatalf("injected divergence: %d failures:\n%s", n, msgs)
	}
}

func TestEdgeFanoutLastEvents(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		e := newEdgeFanout(1).(*edgeFanout)
		t.Cleanup(e.close)
		if err := e.setup(); err != nil {
			t.Fatal(err)
		}
		runOps(e, 40)
		e.check()
		if n, msgs := failures(&e.common); n != 0 {
			t.Fatalf("clean run failed %d checks:\n%s", n, msgs)
		}
	})
	t.Run("stale clients", func(t *testing.T) {
		e := newEdgeFanout(1).(*edgeFanout)
		t.Cleanup(e.close)
		if err := e.setup(); err != nil {
			t.Fatal(err)
		}
		runOps(e, 40)
		// Change a stored document without notifying anyone: every open
		// client of query 7 now holds a stale last event for it.
		if _, err := e.srv.DB().C(efCollection).FindAndModify(docKey(7, 3), map[string]any{"$set": map[string]any{"n": int64(-2)}}, false); err != nil {
			t.Fatal(err)
		}
		e.check()
		n, msgs := failures(&e.common)
		if n < efClients/efGroups || !strings.Contains(msgs, "last event for g07-03") {
			t.Fatalf("stale clients: %d failures:\n%s", n, msgs)
		}
	})
}

func TestDiffResults(t *testing.T) {
	want := []document.Document{{"_id": "a", "n": int64(1)}, {"_id": "b", "n": int64(2)}}
	if diff, err := diffResults([]document.Document{want[1], want[0]}, want); err != nil || diff != "" {
		t.Fatalf("equal results in another order reported: %q, %v", diff, err)
	}
	cases := map[string][]document.Document{
		"missing": {want[0]},
		"holds":   {want[0], {"_id": "b", "n": int64(1)}},
		"extra":   {want[0], want[1], {"_id": "c"}},
	}
	for word, got := range cases {
		if diff, _ := diffResults(got, want); !strings.Contains(diff, word) {
			t.Errorf("%s: diff %q", word, diff)
		}
	}
}

func TestCompareState(t *testing.T) {
	want := map[string][]byte{"a": []byte(`{"_id":"a","n":1}`), "b": []byte(`{"_id":"b","n":2}`)}
	cases := map[string]map[string][]byte{
		"missing": {"a": want["a"]},
		"stale":   {"a": want["a"], "b": []byte(`{"_id":"b","n":1}`)},
		"extra":   {"a": want["a"], "b": want["b"], "c": []byte(`{"_id":"c"}`)},
	}
	if msg := compareState(want, want); msg != "" {
		t.Fatalf("identical state reported: %s", msg)
	}
	for name, got := range cases {
		if compareState(got, want) == "" {
			t.Errorf("%s: difference not reported", name)
		}
	}
}

func TestFrameScanning(t *testing.T) {
	line := []byte(`{"op":"event","id":"c12","type":"change","key":"g05-14","doc":{"_id":"g05-14","body":"x{\"}","g":5,"n":942,"t":-17},"index":-1}` + "\n")
	if id, _ := stringField(line, "id"); id != "c12" {
		t.Errorf("id %q", id)
	}
	if typ, _ := stringField(line, "type"); typ != "change" {
		t.Errorf("type %q", typ)
	}
	doc, ok := objectField(line, "doc")
	if !ok || string(doc) != `{"_id":"g05-14","body":"x{\"}","g":5,"n":942,"t":-17}` {
		t.Fatalf("doc %q", doc)
	}
	if n, _ := intField(doc, "n"); n != 942 {
		t.Errorf("n %d", n)
	}
	if v, _ := intField(doc, "t"); v != -17 {
		t.Errorf("t %d", v)
	}
	initial := []byte(`{"op":"event","id":"c1","type":"initial","docs":[{"_id":"a","n":1},{"_id":"b","n":2}],"index":-1}`)
	var keys []string
	if !eachArrayObject(initial, "docs", func(obj []byte) {
		k, _ := stringField(obj, "_id")
		keys = append(keys, k+"="+strconv.Itoa(len(obj)))
	}) {
		t.Fatal("docs array not scanned")
	}
	if strings.Join(keys, ",") != "a=17,b=17" {
		t.Errorf("docs %v", keys)
	}
}
