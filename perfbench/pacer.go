package main

import (
	"runtime"
	"time"
)

// clock abstracts time so the pacer's schedule can be tested without
// sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// Yield gives up the processor briefly while spinning toward a due
	// time too close to sleep for.
	Yield()
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
func (wallClock) Yield()                { runtime.Gosched() }

// spinBelow is the wait under which the pacer spins instead of sleeping:
// on Linux a sleep shorter than about a millisecond wakes about a
// millisecond late, while longer sleeps overshoot by ~0.15ms.
const spinBelow = time.Millisecond

// pacer is an open-loop load schedule: op k is due at start + k/rate,
// whatever happened to earlier ops. It sleeps until each due time and never
// sends early; when an op overruns, the ops behind it go out late — at once,
// one after the other — and their lateness is recorded, so a stall in the
// system shows up in every sample it delays instead of silently lowering the
// offered rate.
type pacer struct {
	clk   clock
	start time.Time
	rate  float64
	// late holds now-due for every op sent, in op order.
	late []time.Duration
}

func newPacer(clk clock, start time.Time, rate float64) *pacer {
	return &pacer{clk: clk, start: start, rate: rate}
}

// due is op k's scheduled send time. It is computed from k directly, not by
// adding periods, so rounding never accumulates into drift.
func (p *pacer) due(k int) time.Time {
	return p.start.Add(time.Duration(float64(k) / p.rate * float64(time.Second)))
}

// run sends ops 0, 1, ... until the next one would be due at or after end.
// send receives the op index and its due time. It returns the ops sent.
func (p *pacer) run(end time.Time, send func(k int, due time.Time)) int {
	k := 0
	for ; ; k++ {
		due := p.due(k)
		if !due.Before(end) {
			return k
		}
		now := p.clk.Now()
		for now.Before(due) {
			if wait := due.Sub(now); wait >= spinBelow {
				p.clk.Sleep(wait)
			} else {
				p.clk.Yield()
			}
			now = p.clk.Now()
		}
		p.late = append(p.late, now.Sub(due))
		send(k, due)
	}
}
