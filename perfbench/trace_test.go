package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestRollUpAttributesInPipelineOrder(t *testing.T) {
	tr := &tracer{}
	tr.root(1, time.Unix(0, 0))
	tr.child(1, "gen", 0, 10)
	tr.child(1, "wire.encode", 10, 20)
	tr.child(1, "core.ingest", 15, 50) // overlaps encode: owns only 20..50
	tr.child(1, "eventlayer.bus", 60, 90)
	// A receipt span recorded from the due time owns only what follows
	// the stage before it.
	tr.child(1, "appserver.deliver", 0, 95)
	r := rollUp(tr.snapshot())
	want := map[string]time.Duration{
		"gen": 10, "wire.encode": 10, "core.ingest": 30,
		"eventlayer.bus": 30, "appserver.deliver": 5, unattributed: 10,
	}
	if r.Roots != 1 || r.Total != 95 {
		t.Fatalf("roots %d total %v, want 1 and 95ns", r.Roots, r.Total)
	}
	for name, d := range want {
		if r.Self[name] != d {
			t.Errorf("%s self time %v, want %v", name, r.Self[name], d)
		}
	}
}

// TestRollUpSumsToTotal checks the invariant the stage table relies on:
// self times plus unattributed add up to the root spans' total exactly,
// whatever the children's overlaps and gaps.
func TestRollUpSumsToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := &tracer{}
	for w := int64(0); w < 500; w++ {
		due := rng.Int63n(1e9)
		tr.root(w, time.Unix(0, due))
		for i := rng.Intn(12); i > 0; i-- {
			s := due + rng.Int63n(1e6) - 1e5 // some start before the root
			tr.child(w, stageNames[rng.Intn(len(stageNames))], s, s+rng.Int63n(1e6))
		}
	}
	r := rollUp(tr.snapshot())
	if r.Roots == 0 {
		t.Fatal("no root closed")
	}
	var sum time.Duration
	for _, d := range r.Self {
		if d < 0 {
			t.Fatalf("negative self time %v", d)
		}
		sum += d
	}
	if sum != r.Total {
		t.Fatalf("self times sum to %v, root spans total %v", sum, r.Total)
	}
	total := 0.0
	for _, name := range append(append([]string(nil), stageNames...), unattributed) {
		total += r.meanMS(name)
	}
	mean := float64(r.Total) / float64(r.Roots) / float64(time.Millisecond)
	if diff := total - mean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("stage means sum to %v ms, end-to-end mean is %v ms", total, mean)
	}
}
