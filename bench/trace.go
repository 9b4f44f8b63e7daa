package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the harness around every call it makes into a layer
// (and around its own callbacks), never inside the program. Each lane is
// owned by one execution context — the harness's main goroutine, or one
// node's event domain, whose callbacks the engine never runs concurrently —
// so recording takes no lock.

type spanName uint8

const (
	spNewCluster spanName = iota
	spBuildTopology
	spBoot
	spOpenPort
	spProvide
	spRun
	spOnRecv
	spOnSendDone
	spSend
	spRecycle
	spShutdown
	spRunTrial
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"gm.new_cluster", "gm.build_topology", "gm.boot", "gm.open_port",
	"gm.provide", "gm.run", "bench.on_recv", "bench.on_send_done",
	"gm.send", "gm.recycle", "gm.shutdown", "chaos.run_trial",
}

// rawSampleEvery keeps one raw span in this many; aggregates cover all.
const rawSampleEvery = 256

type spanAgg struct {
	Count  uint64 `json:"count"`
	DurNs  int64  `json:"dur_ns"`
	SelfNs int64  `json:"self_ns"`
}

type rawSpan struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Workload string `json:"workload"`
}

type frame struct {
	name  spanName
	id    uint64
	start time.Time
	child int64 // time covered by child spans, for self time
}

// tracer owns the lanes of one traced run.
type tracer struct {
	workload string
	epoch    time.Time
	lanes    []*lane
	// runSpan is the id of the open gm.run span: the parent of every span a
	// callback lane opens at its root. Written by the main lane between
	// engine runs only, so callback lanes read it without synchronization.
	runSpan uint64
}

// lane is one execution context's span stack and aggregates. A nil lane is
// tracing switched off: every method is then a single pointer test.
type lane struct {
	t *tracer
	// callback marks a lane whose root spans run inside the engine, under
	// the main lane's open gm.run span.
	callback bool
	idBase   uint64
	next     uint64
	stack    []frame
	aggs     [numSpanNames]spanAgg
	raw      []rawSpan
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// newLane adds a lane for the harness's main goroutine (callback false) or
// for one node's callbacks. Nil tracers hand out nil lanes.
func (t *tracer) newLane(callback bool) *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t, callback: callback, idBase: uint64(len(t.lanes)+1) << 40, stack: make([]frame, 0, 8)}
	t.lanes = append(t.lanes, l)
	return l
}

func (l *lane) begin(name spanName) {
	if l == nil {
		return
	}
	l.next++
	l.stack = append(l.stack, frame{name: name, id: l.idBase | l.next, start: time.Now()})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	now := time.Now()
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	dur := now.Sub(f.start).Nanoseconds()
	a := &l.aggs[f.name]
	a.Count++
	a.DurNs += dur
	a.SelfNs += dur - f.child
	var parent uint64
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += dur
		parent = l.stack[n-1].id
	} else if l.callback {
		parent = l.t.runSpan
	}
	if a.Count%rawSampleEvery == 1 {
		l.raw = append(l.raw, rawSpan{
			Name:     spanNames[f.name],
			StartNs:  f.start.Sub(l.t.epoch).Nanoseconds(),
			EndNs:    now.Sub(l.t.epoch).Nanoseconds(),
			ID:       f.id,
			Parent:   parent,
			Workload: l.t.workload,
		})
	}
}

// openRun opens a gm.run span on the main lane and publishes its id as the
// parent for callback lanes.
func (l *lane) openRun() {
	if l == nil {
		return
	}
	l.begin(spRun)
	l.t.runSpan = l.stack[len(l.stack)-1].id
}

// totals folds every lane's aggregates. Callback lanes' root spans are
// children of gm.run; their time is subtracted from its self time here,
// since the lanes cannot see each other's stacks.
func (t *tracer) totals() [numSpanNames]spanAgg {
	var out [numSpanNames]spanAgg
	if t == nil {
		return out
	}
	var callbackRoots int64
	for _, l := range t.lanes {
		for n := range l.aggs {
			out[n].Count += l.aggs[n].Count
			out[n].DurNs += l.aggs[n].DurNs
			out[n].SelfNs += l.aggs[n].SelfNs
		}
		if l.callback {
			callbackRoots += l.aggs[spOnRecv].DurNs + l.aggs[spOnSendDone].DurNs
		}
	}
	out[spRun].SelfNs -= callbackRoots
	return out
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	SampleRate int                `json:"raw_sample_every"`
	Aggregates map[string]spanAgg `json:"aggregates"`
	Spans      []rawSpan          `json:"spans"`
}

func (t *tracer) write(path string) error {
	tot := t.totals()
	tf := traceFile{Workload: t.workload, SampleRate: rawSampleEvery, Aggregates: map[string]spanAgg{}}
	for n, a := range tot {
		tf.Aggregates[spanNames[n]] = a
	}
	for _, l := range t.lanes {
		tf.Spans = append(tf.Spans, l.raw...)
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
