package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the pacer sleeps or yields, or when a test's
// op pretends to take time. Sleeps overshoot by oversleep, as real ones do.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (f *fakeClock) Now() time.Time        { return f.now }
func (f *fakeClock) Sleep(d time.Duration) { f.now = f.now.Add(d + f.oversleep) }
func (f *fakeClock) Yield()                { f.now = f.now.Add(10 * time.Microsecond) }

type sent struct {
	k       int
	due, at time.Time
}

func runFake(t *testing.T, clk *fakeClock, rate float64, d time.Duration, cost func(k int) time.Duration) (*pacer, []sent) {
	t.Helper()
	start := clk.now
	p := newPacer(clk, start, rate)
	var log []sent
	n := p.run(start.Add(d), func(k int, due time.Time) {
		log = append(log, sent{k: k, due: due, at: clk.Now()})
		clk.now = clk.now.Add(cost(k))
	})
	if n != len(log) || n != len(p.late) {
		t.Fatalf("run returned %d, sent %d, recorded %d latenesses", n, len(log), len(p.late))
	}
	return p, log
}

// TestPacerDueTimes pins the schedule: op k is due at start + k/rate, so op
// 0 goes out at start itself and no op is a period late.
func TestPacerDueTimes(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	p, log := runFake(t, clk, 100, 100*time.Millisecond, func(int) time.Duration { return 0 })
	if len(log) != 10 {
		t.Fatalf("sent %d ops in 100ms at 100/s, want 10", len(log))
	}
	for i, s := range log {
		want := start.Add(time.Duration(i) * 10 * time.Millisecond)
		if !s.due.Equal(want) {
			t.Errorf("op %d due %v after start, want %v", i, s.due.Sub(start), want.Sub(start))
		}
		if !s.at.Equal(s.due) || p.late[i] != 0 {
			t.Errorf("op %d sent %v after its due time with an exact clock, recorded %v", i, s.at.Sub(s.due), p.late[i])
		}
	}
}

// TestPacerNeverEarlyAndMeasuresLateness stalls one op for 3.5 periods. The
// ops behind it go out at once, late by exactly what the stall cost them,
// and the schedule then resumes without drift.
func TestPacerNeverEarlyAndMeasuresLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), oversleep: 150 * time.Microsecond}
	start := clk.now
	p, log := runFake(t, clk, 100, 200*time.Millisecond, func(k int) time.Duration {
		if k == 3 {
			return 35 * time.Millisecond
		}
		return 100 * time.Microsecond
	})
	if len(log) != 20 {
		t.Fatalf("sent %d ops, want 20: a stall must not drop ops", len(log))
	}
	for i, s := range log {
		if s.at.Before(s.due) {
			t.Fatalf("op %d sent %v early", i, s.due.Sub(s.at))
		}
		if got := s.at.Sub(s.due); p.late[i] != got {
			t.Errorf("op %d: recorded lateness %v, actual %v", i, p.late[i], got)
		}
	}
	// Op 3 is due at 30ms and holds the sender until 65.15ms (it was sent
	// 150µs late); ops 4-6 are due at 40, 50 and 60ms and go out
	// back to back after it.
	stallEnd := start.Add(30*time.Millisecond + 150*time.Microsecond + 35*time.Millisecond)
	for i, want := range map[int]time.Duration{4: 25150 * time.Microsecond, 5: 15250 * time.Microsecond, 6: 5350 * time.Microsecond} {
		if p.late[i] != want {
			t.Errorf("op %d lateness %v, want %v", i, p.late[i], want)
		}
	}
	if log[4].at != stallEnd {
		t.Errorf("op 4 sent at %v, want right after the stall at %v", log[4].at.Sub(start), stallEnd.Sub(start))
	}
	// Op 7 (due 70ms) is ahead of the clock again: it waits and is late only
	// by the sleep's overshoot.
	if p.late[7] != 150*time.Microsecond {
		t.Errorf("op 7 lateness %v, want the 150µs sleep overshoot", p.late[7])
	}
}

// TestPacerWallClock runs the real clock briefly: no op is ever early.
func TestPacerWallClock(t *testing.T) {
	start := time.Now()
	p := newPacer(wallClock{}, start, 2000)
	n := p.run(start.Add(50*time.Millisecond), func(k int, due time.Time) {
		if now := time.Now(); now.Before(due) {
			t.Errorf("op %d sent %v early", k, due.Sub(now))
		}
	})
	if n != 100 {
		t.Errorf("sent %d ops in 50ms at 2000/s, want 100", n)
	}
	for i, l := range p.late {
		if l < 0 {
			t.Errorf("op %d recorded negative lateness %v", i, l)
		}
	}
}
