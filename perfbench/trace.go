package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// rootSpan names the span that covers one write end to end: from its due
// time until the last of its notifications was taken in. Every other span
// of the write is its child.
const rootSpan = "write"

// unattributed names the part of a root span that no child span covers.
const unattributed = "unattributed"

// span is one timed call into a layer, recorded from the benchmark's own
// code around that call. Spans of one write share its write id. Times are
// Unix nanoseconds.
type span struct {
	Write  int64  `json:"write"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// root opens write's root span at its due time. Its end is left open: the
// roll-up closes it at the latest end among the write's child spans.
func (t *tracer) root(write int64, due time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Write: write, Name: rootSpan, Start: due.UnixNano()})
	t.mu.Unlock()
}

// child records one child span of write's root.
func (t *tracer) child(write int64, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Write: write, Name: name, Parent: rootSpan, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return f.Close()
}

// rollup is the per-layer self time of a set of traced writes.
type rollup struct {
	// Roots counts writes whose root span closed (at least one child).
	Roots int
	// Total sums the root spans' durations.
	Total time.Duration
	// Self sums, per span name, the time attributed to it; the root's own
	// share is under unattributed.
	Self map[string]time.Duration
}

// rollUp attributes each root span's duration to its children in pipeline
// order (stageNames; spans of one stage in start order). A child's self time
// is the part of its interval inside the root that starts after everything
// attributed before it ended, so the stage the work was in first owns any
// overlap and nothing is counted twice: Self sums to Total exactly. What no
// child covers is the root's own self time, reported as unattributed. A
// child may therefore start at the write's due time and still own only the
// time after the previous stage ended — how a receipt span is recorded when
// its receiver cannot see where the stage before it ended.
func rollUp(spans []span) rollup {
	byWrite := map[int64][]span{}
	for _, s := range spans {
		byWrite[s.Write] = append(byWrite[s.Write], s)
	}
	r := rollup{Self: map[string]time.Duration{}}
	for _, group := range byWrite {
		var root *span
		var kids []span
		for i := range group {
			if group[i].Parent == "" {
				root = &group[i]
			} else {
				kids = append(kids, group[i])
			}
		}
		if root == nil || len(kids) == 0 {
			continue
		}
		end := root.End
		for _, k := range kids {
			if k.End > end {
				end = k.End
			}
		}
		if end <= root.Start {
			continue
		}
		sort.Slice(kids, func(i, j int) bool {
			ri, rj := stageRank(kids[i].Name), stageRank(kids[j].Name)
			if ri != rj {
				return ri < rj
			}
			return kids[i].Start < kids[j].Start
		})
		cursor := root.Start
		covered := int64(0)
		for _, k := range kids {
			s, e := k.Start, k.End
			if s < cursor {
				s = cursor
			}
			if e > end {
				e = end
			}
			if e <= s {
				continue
			}
			r.Self[k.Name] += time.Duration(e - s)
			covered += e - s
			cursor = e
		}
		r.Roots++
		r.Total += time.Duration(end - root.Start)
		r.Self[unattributed] += time.Duration(end - root.Start - covered)
	}
	return r
}

// meanMS is name's self time per root, in milliseconds.
func (r rollup) meanMS(name string) float64 {
	if r.Roots == 0 {
		return 0
	}
	return float64(r.Self[name]) / float64(r.Roots) / float64(time.Millisecond)
}

// stageRank is name's position in the pipeline; unknown names go last.
func stageRank(name string) int {
	for i, n := range stageNames {
		if n == name {
			return i
		}
	}
	return len(stageNames)
}
