package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/stoke"
)

// span is one traced interval. Calls (one Optimize call or one HTTP job)
// have Parent -1; phase spans point at their call.
type span struct {
	Name   string  `json:"name"`
	Kernel string  `json:"kernel"`
	Round  int     `json:"round,omitempty"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans and event counts in memory; they are written out
// when the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	open   map[string]float64 // call/phase/round → start
	counts map[string]int     // event kind, or "verdict:<v>"
	phases map[string]float64 // phase → summed seconds
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[string]float64{},
		counts: map[string]int{}, phases: map[string]float64{}}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// call records a finished call span and returns its index.
func (t *tracer) call(kernel string, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: "call", Kernel: kernel, Parent: -1,
		Start: start.Sub(t.t0).Seconds(), End: t.now()})
	return len(t.spans) - 1
}

// reserve opens a call span whose end is filled in by finish.
func (t *tracer) reserve(kernel string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: "call", Kernel: kernel, Parent: -1, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) finish(call int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[call].End = t.now()
}

// event folds one engine event of the given call into spans and counts.
// elapsed is the phase duration of a phase end.
func (t *tracer) event(call int, kind, kernel, phase string, round int, verdict string, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := fmt.Sprintf("%d/%s/%d", call, phase, round)
	switch kind {
	case "phase-start":
		t.open[key] = t.now()
	case "phase-end":
		end := t.now()
		start, ok := t.open[key]
		if !ok {
			start = end - elapsed.Seconds() // events replayed without timestamps
		}
		delete(t.open, key)
		t.spans = append(t.spans, span{Name: phase, Kernel: kernel, Round: round,
			Parent: call, Start: start, End: end})
		t.phases[phase] += elapsed.Seconds()
	case "verdict":
		t.counts["verdict:"+verdict]++
	default:
		t.counts[kind]++
	}
}

// observer adapts event for stoke.WithObserver.
func (t *tracer) observer(call int) func(stoke.Event) {
	return func(ev stoke.Event) {
		verdict := ""
		if ev.Kind == stoke.EventVerdict {
			verdict = ev.Verdict.String()
		}
		t.event(call, ev.Kind.String(), ev.Kernel, ev.Phase, ev.Round, verdict, ev.Elapsed)
	}
}

// conclusiveFrac is equal and not-equal verdict events over all verdict
// events.
func (t *tracer) conclusiveFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := 0
	for _, v := range []string{"equal", "not-equal", "unknown", "unsupported"} {
		all += t.counts["verdict:"+v]
	}
	return ratio(float64(t.counts["verdict:equal"]+t.counts["verdict:not-equal"]), float64(all))
}

// write saves the spans and counts under dir.
func (t *tracer) write(dir, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans  []span         `json:"spans"`
		Counts map[string]int `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
