package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
	"twolevel/internal/telemetry"
	"twolevel/internal/trace"
)

// replayRefJSON holds recorded (predictions, correct) pairs of every
// replay cell for a few seeds, from runs on the interpretive runner.
//
//go:embed reference/replay.json
var replayRefJSON []byte

type replayRef struct {
	Budget uint64 `json:"budget"`
	// Cells names the cells in round order ("bench|cell label").
	Cells []string `json:"cells"`
	// Seeds maps a seed to each cell's [predictions, correct].
	Seeds map[string][]counts `json:"seeds"`
}

// matches reports whether the reference was recorded for this cell list
// and budget.
func (ref replayRef) matches(r *replay) bool {
	if ref.Budget != r.budget || len(ref.Cells) != len(r.benches)*len(replayCells) {
		return false
	}
	for k, key := range ref.Cells {
		if key != r.cellKey(k) {
			return false
		}
	}
	return true
}

// replayBudget is each cell's conditional-branch budget.
const replayBudget = 200_000

// Cell modes: how a cell is run beyond its spec.
const (
	modePlain    = ""          // kernel, no telemetry
	modeSampled  = "sampled"   // kernel with the Tap (interval + top-K)
	modePipeline = "pipeline8" // declined: brsim -pipeline 8
	modeObserver = "observer"  // declined: brexp -metrics observers
)

// replayCell is one entry of the fixed cell list, run on every
// benchmark.
type replayCell struct {
	family string // loop family the cell exercises: gag, pag, pap, generic, static, tap, runner
	spec   string
	mode   string
}

func (c replayCell) label() string {
	if c.mode == modePlain {
		return c.spec
	}
	return c.spec + " " + c.mode
}

// replayCells covers every kernel loop family, the sampled (Tap) path
// and a minority of cells the kernel declines.
var replayCells = []replayCell{
	{"gag", "GAg(HR(1,,12-sr),1xPHT(2^12,A2))", modePlain},
	{"gag", "GAg(HR(1,,18-sr),1xPHT(2^18,A2))", modePlain},
	{"pag", "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", modePlain},
	{"pag", "PAg(BHT(256,1,12-sr),1xPHT(2^12,A2))", modePlain},
	{"pap", "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))", modePlain},
	{"pap", "PAp(BHT(128,2,4-sr),128xPHT(2^4,A4))", modePlain},
	{"generic", "GAs(HR(1,,8-sr),16xPHT(2^8,A2))", modePlain},
	{"generic", "SAs(SHT(64,,6-sr),16xPHT(2^6,A2))", modePlain},
	{"generic", "SAg(SHT(64,,8-sr),1xPHT(2^8,A2))", modePlain},
	{"generic", "PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))", modePlain},
	{"generic", "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)", modePlain},
	{"generic", "GAg(HR(1,,8-sr),1xPHT(2^8,A2),c)", modePlain},
	{"static", "AlwaysTaken", modePlain},
	{"static", "BTFN", modePlain},
	{"tap", "GAg(HR(1,,12-sr),1xPHT(2^12,A2))", modeSampled},
	{"tap", "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", modeSampled},
	{"runner", "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", modePipeline},
	{"runner", "GAg(HR(1,,12-sr),1xPHT(2^12,A2))", modeObserver},
}

// options builds a cell's simulation options; telemetry sinks and
// observers are single-use, so every run gets fresh ones.
func (c replayCell) options(sp spec.Spec, budget uint64, disableFastpath bool) sim.Options {
	o := sim.Options{ContextSwitches: sp.ContextSwitch, MaxCondBranches: budget, DisableFastpath: disableFastpath}
	switch c.mode {
	case modeSampled:
		o.Telemetry = &sim.Telemetry{Interval: budget / 64, TopK: 8}
	case modePipeline:
		o.PipelineDepth = 8
	case modeObserver:
		o.Observer = telemetry.Multi(telemetry.NewRunStats(), telemetry.NewHotBranches(10),
			telemetry.NewIntervalSeries(budget/20))
	}
	return o
}

// counts is a cell's (predictions, correct) pair.
type counts [2]uint64

// replay runs the fixed cell list serially over nine benchmarks captured
// from seeded data sets.
type replay struct {
	seed    uint64
	budget  uint64
	benches []*prog.Benchmark
	sets    []prog.DataSet
	specs   []spec.Spec // parsed replayCells
	cache   *trace.CaptureCache
	ref     []counts // recorded reference for this seed, or nil
	first   []counts // the first round's results (no recorded reference)
	last    []counts // the last round's results, for check
	// The last round's tracer (nil when untraced) and the cache
	// counters at its start.
	tr    *tracer
	stats trace.CaptureStats
	// Set-up capture timings, one per set-up.
	captureS, captureRate []float64
}

func newReplay(seed uint64) (*replay, error) {
	r := &replay{seed: seed, budget: replayBudget, benches: prog.All}
	for i, b := range r.benches {
		r.sets = append(r.sets, seededDataSet(b, seed, i))
	}
	for _, c := range replayCells {
		sp, err := spec.Parse(c.spec)
		if err != nil {
			return nil, fmt.Errorf("replay cell %q: %w", c.spec, err)
		}
		r.specs = append(r.specs, sp)
	}
	return r, nil
}

// seededDataSet derives benchmark i's data set from seed: the testing
// scale with a seeded generator state.
func seededDataSet(b *prog.Benchmark, seed uint64, i int) prog.DataSet {
	x := splitmix(seed*16 + uint64(i))
	return prog.DataSet{Name: fmt.Sprintf("seed%d", seed), Seed: uint32(x>>32) | 1, Scale: b.Testing.Scale}
}

// splitmix is the SplitMix64 finaliser, used to derive seeded values.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *replay) setUp() error {
	var ref replayRef
	if err := json.Unmarshal(replayRefJSON, &ref); err != nil {
		return fmt.Errorf("replay reference: %w", err)
	}
	r.ref = nil
	if ref.matches(r) {
		r.ref = ref.Seeds[strconv.FormatUint(r.seed, 10)]
	}
	r.cache = trace.NewCaptureCache()
	start := time.Now()
	for i, b := range r.benches {
		if _, err := r.snapshot(i, b); err != nil {
			return err
		}
	}
	d := time.Since(start)
	r.captureS = append(r.captureS, d.Seconds())
	r.captureRate = append(r.captureRate, rate(uint64(r.cache.Stats().Events), d))
	return nil
}

// snapshot fetches benchmark i's capture through the cache, capturing it
// from the interpreter on first use.
func (r *replay) snapshot(i int, b *prog.Benchmark) (trace.Snapshot, error) {
	ds := r.sets[i]
	return r.cache.Capture(context.Background(), b.Name+"\x00"+ds.Name, r.budget, func() (trace.Source, error) {
		return b.NewSource(ds)
	})
}

func (r *replay) round(tr *tracer) (*roundOut, error) {
	out := &roundOut{}
	r.last = r.last[:0]
	r.tr, r.stats = tr, r.cache.Stats()
	for i, b := range r.benches {
		for ci, c := range replayCells {
			t0 := time.Now()
			snap, err := r.snapshot(i, b)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			p, err := spec.Build(r.specs[ci], nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.spec, err)
			}
			t2 := time.Now()
			opts := c.options(r.specs[ci], r.budget, false)
			res, err := sim.Run(p, snap.Reader(), opts)
			t3 := time.Now()
			o := op{lat: t3.Sub(t0), events: experiments.ResultEvents(res)}
			if err != nil {
				fmt.Fprintf(os.Stderr, "replay: %s/%s: %v\n", b.Name, c.label(), err)
				o.cause = "error"
			}
			out.ops = append(out.ops, o)
			r.last = append(r.last, counts{res.Accuracy.Predictions, res.Accuracy.Correct})
			if tr != nil {
				fast := sim.FastpathEligible(p, snap.Reader(), opts)
				cell := tr.add("cell", 0, t0, t3, "bench", b.Name, "cell", c.label())
				tr.add("trace.CaptureCache.Capture", cell, t0, t1)
				tr.add("spec.Build", cell, t1, t2)
				tr.add("sim.Run", cell, t2, t3, "family", c.family,
					"fastpath", strconv.FormatBool(fast), "events", strconv.FormatUint(o.events, 10),
					"predictions", strconv.FormatUint(res.Accuracy.Predictions, 10),
					"correct", strconv.FormatUint(res.Accuracy.Correct, 10))
			}
		}
	}
	return out, nil
}

// replayLayers derives per-layer values from one traced round's spans.
func replayLayers(recs []spanRec) map[string]float64 {
	var builds []float64
	var build time.Duration
	runDur := map[string]time.Duration{}
	runEvents := map[string]uint64{}
	var events, preds, correct uint64
	fast, cells := 0, 0
	for _, s := range recs {
		switch s.Name {
		case "spec.Build":
			builds = append(builds, float64(s.dur())/1e3)
			build += s.dur()
		case "sim.Run":
			ev, _ := strconv.ParseUint(s.Attrs["events"], 10, 64)
			p, _ := strconv.ParseUint(s.Attrs["predictions"], 10, 64)
			c, _ := strconv.ParseUint(s.Attrs["correct"], 10, 64)
			fam := s.Attrs["family"]
			runDur[fam] += s.dur()
			runEvents[fam] += ev
			events += ev
			preds += p
			correct += c
			cells++
			if s.Attrs["fastpath"] == "true" {
				fast++
			}
		}
	}
	out := map[string]float64{
		"spec.build_us":       median(builds),
		"spec.build_s":        build.Seconds(),
		"fastpath.cell_ratio": float64(fast) / float64(max(cells, 1)),
		"sim.events":          float64(events),
		"sim.predictions":     float64(preds),
		"sim.mispredictions":  float64(preds - correct),
	}
	for _, fam := range []string{"gag", "pag", "pap", "generic", "static", "tap"} {
		out["fastpath."+fam+"_events_per_s"] = rate(runEvents[fam], runDur[fam])
	}
	out["sim.runner_events_per_s"] = rate(runEvents["runner"], runDur["runner"])
	return out
}

// check derives a traced round's per-layer values, then compares the
// round's cells with the recorded reference, or, without one, with the
// first round (finish then cross-checks that round against the
// interpretive runner).
func (r *replay) check(out *roundOut) error {
	if r.tr != nil {
		out.layer = replayLayers(r.tr.records())
		st := r.cache.Stats()
		hits, misses := st.Hits-r.stats.Hits, st.Misses-r.stats.Misses
		out.layer["trace.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		out.layer["trace.cache_mb"] = float64(st.Bytes) / 1e6
	}
	want := r.first
	if r.ref != nil {
		want = r.ref
	} else if want == nil {
		r.first = append([]counts(nil), r.last...)
		return nil
	}
	for k, got := range r.last {
		if out.ops[k].ok() && got != want[k] {
			fmt.Fprintf(os.Stderr, "replay: %s = %v, reference %v\n", r.cellKey(k), got, want[k])
			out.ops[k].cause = causeWrong
		}
	}
	return nil
}

// cellKey names op k of a round: benchmark and cell label.
func (r *replay) cellKey(k int) string {
	return r.benches[k/len(replayCells)].Name + "|" + replayCells[k%len(replayCells)].label()
}

// finish cross-checks the first round against the interpretive runner
// when the seed has no recorded reference. Every later round already
// matched the first.
func (r *replay) finish(rounds []*roundOut) error {
	if r.ref != nil {
		return nil
	}
	want, err := r.runnerCounts()
	if err != nil {
		return err
	}
	for k, got := range r.first {
		if got == want[k] {
			continue
		}
		fmt.Fprintf(os.Stderr, "replay: %s = %v, interpretive runner %v\n", r.cellKey(k), got, want[k])
		for _, out := range rounds {
			out.ops[k].cause = causeWrong
		}
	}
	return nil
}

// runnerCounts runs every cell with the replay kernel disabled.
func (r *replay) runnerCounts() ([]counts, error) {
	var out []counts
	for i, b := range r.benches {
		snap, err := r.snapshot(i, b)
		if err != nil {
			return nil, err
		}
		for ci, c := range replayCells {
			p, err := spec.Build(r.specs[ci], nil)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(p, snap.Reader(), c.options(r.specs[ci], r.budget, true))
			if err != nil {
				return nil, fmt.Errorf("%s/%s on the runner: %w", b.Name, c.label(), err)
			}
			out = append(out, counts{res.Accuracy.Predictions, res.Accuracy.Correct})
		}
	}
	return out, nil
}

func (r *replay) layers([]*roundOut) map[string]float64 {
	return map[string]float64{
		"cpu.capture_s":            median(r.captureS),
		"cpu.capture_events_per_s": median(r.captureRate),
	}
}

func (r *replay) unmeasured() map[string]string {
	return map[string]string{
		"sim.runmany_events_per_s":     "replay runs cells serially through sim.Run",
		"experiments.cell_p50_ms":      "no experiment grid on this workload",
		"experiments.cell_p90_ms":      "no experiment grid on this workload",
		"experiments.sched_overhead_s": "no experiment grid on this workload",
		"experiments.report_s":         "no experiment grid on this workload",
	}
}

func (r *replay) roundSeconds() float64 { return 1.4 }

func (r *replay) limit() time.Duration { return 0 }

func (r *replay) tearDown() { r.cache = nil }

// writeReplayReference records the runner's cell counts for seed,
// keeping the seeds already in path when they were recorded for the same
// cells and budget.
func writeReplayReference(path string, seed uint64) error {
	r, err := newReplay(seed)
	if err != nil {
		return err
	}
	ref := replayRef{Budget: r.budget, Seeds: map[string][]counts{}}
	for k := 0; k < len(r.benches)*len(replayCells); k++ {
		ref.Cells = append(ref.Cells, r.cellKey(k))
	}
	var old replayRef
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &old) == nil && old.matches(r) {
		ref.Seeds = old.Seeds
	}
	r.cache = trace.NewCaptureCache()
	got, err := r.runnerCounts()
	if err != nil {
		return err
	}
	ref.Seeds[strconv.FormatUint(seed, 10)] = got
	return writeJSON(path, ref)
}

func writeReference(name string, seed uint64, path string) error {
	switch name {
	case "suite":
		return writeSuiteReference(path)
	case "replay":
		return writeReplayReference(path, seed)
	}
	return fmt.Errorf("workload %q has no recorded reference", name)
}
