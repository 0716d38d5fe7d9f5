package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"twolevel/internal/experiments"
	"twolevel/internal/span"
)

// suiteRefJSON holds the suite's reference: the budget and the SHA-256
// of every experiment's rendered text report, recorded from a run on
// the interpretive runner (DisableFastpath).
//
//go:embed reference/suite.json
var suiteRefJSON []byte

type suiteRef struct {
	Budget  uint64            `json:"budget"`
	Digests map[string]string `json:"digests"`
}

// suiteWarmBudget is the budget of the set-up pass that warms code paths
// and the heap before the timed rounds.
const suiteWarmBudget = 5_000

// suite runs `brexp -exp all`: every experiment in presentation order,
// sharing cold caches within a round and dropping them after it. The
// round is one operation, the run a user waits for.
type suite struct {
	ref   suiteRef
	ids   []string
	texts [][]byte // the last round's rendered reports, for check
	// A traced round's program tracer, its epoch's offset from the
	// round tracer's, the round tracer and the grid events.
	ptr    *span.Tracer
	offset time.Duration
	tr     *tracer
	events uint64
}

func newSuite() *suite { return &suite{} }

func (s *suite) setUp() error {
	if err := json.Unmarshal(suiteRefJSON, &s.ref); err != nil {
		return fmt.Errorf("suite reference: %w", err)
	}
	s.ids = experiments.IDs()
	for _, id := range s.ids {
		if _, ok := s.ref.Digests[id]; !ok {
			return fmt.Errorf("suite reference has no digest for experiment %q", id)
		}
		if _, err := renderExperiment(id, experiments.Options{CondBranches: suiteWarmBudget}); err != nil {
			return err
		}
	}
	experiments.ResetCaches()
	return nil
}

// renderExperiment runs one experiment and renders its text report, as
// brexp prints it.
func renderExperiment(id string, opts experiments.Options) ([]byte, error) {
	rep, err := experiments.Run(id, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		return nil, fmt.Errorf("%s: render: %w", id, err)
	}
	return buf.Bytes(), nil
}

func (s *suite) round(tr *tracer) (*roundOut, error) {
	mon := experiments.NewMonitor()
	opts := experiments.Options{CondBranches: s.ref.Budget, Monitor: mon}
	s.tr, s.ptr = tr, nil
	var root *span.Span
	if tr != nil {
		s.offset = time.Since(tr.epoch)
		s.ptr = span.New()
		root = s.ptr.Root("suite")
		opts.Span = root
	}
	s.texts = s.texts[:0]
	cause := ""
	start := time.Now()
	for _, id := range s.ids {
		t0 := time.Now()
		text, err := renderExperiment(id, opts)
		tr.add("experiments.Run", 0, t0, time.Now(), "exp", id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "suite:", err)
			cause = "error"
		}
		s.texts = append(s.texts, text)
	}
	lat := time.Since(start)
	root.End()
	s.events = mon.Snapshot().Events
	return &roundOut{ops: []op{{lat: lat, events: s.events, cause: cause}}}, nil
}

// suiteLayers derives the suite's per-layer values from the program's
// spans: captures, grid tasks, RunMany passes, reports and the
// experiments' own time outside them. gridEvents is the round's
// simulated events over every grid cell, all of which replay through
// RunMany passes.
func suiteLayers(recs []spanRec, gridEvents uint64) map[string]float64 {
	kids := childrenOf(recs)
	misses := map[string][]interval{}
	var cellMS []float64
	var report, sched, runmany time.Duration
	fast, cells := 0, 0
	for _, r := range recs {
		switch {
		case r.Name == "capture" && r.Attrs["hit"] == "false":
			misses[r.Attrs["key"]] = append(misses[r.Attrs["key"]], r.iv())
		case r.Name == "task":
			// Batched cells share one pass; each is charged an equal
			// share, as the scheduler's own monitor does.
			rows, _ := strconv.Atoi(r.Attrs["rows"])
			for i := 0; i < rows; i++ {
				cellMS = append(cellMS, float64(r.dur())/1e6/float64(rows))
			}
		case r.Name == "report":
			report += r.dur()
		case r.Name == "replay":
			if b, ok := r.Attrs["batch"]; ok {
				n, _ := strconv.Atoi(b)
				f, _ := strconv.Atoi(r.Attrs["fastcells"])
				cells += n
				fast += f
				runmany += r.dur()
			} else {
				cells++
				if r.Attrs["fastpath"] == "true" {
					fast++
				}
			}
		case strings.HasPrefix(r.Name, "exp:"):
			if hasChild(kids[r.ID], "task") {
				sched += selfTime(r, kids[r.ID])
			}
		}
	}
	var capture time.Duration
	for _, ivs := range misses {
		capture += unionLen(ivs)
	}
	st := experiments.CaptureCacheStats()
	lat := exact(cellMS)
	out := map[string]float64{
		"cpu.capture_s":                capture.Seconds(),
		"cpu.capture_events_per_s":     rate(uint64(st.Events), capture),
		"trace.cache_hit_ratio":        st.HitRatio(),
		"trace.cache_mb":               float64(st.Bytes) / 1e6,
		"experiments.cell_p50_ms":      lat.quantile(0.50),
		"experiments.cell_p90_ms":      lat.quantile(0.90),
		"experiments.sched_overhead_s": sched.Seconds(),
		"experiments.report_s":         report.Seconds(),
		"sim.runmany_events_per_s":     rate(gridEvents, runmany),
		"sim.events":                   float64(gridEvents),
	}
	if cells > 0 {
		out["fastpath.cell_ratio"] = float64(fast) / float64(cells)
	}
	return out
}

func hasChild(kids []spanRec, name string) bool {
	for _, k := range kids {
		if k.Name == name {
			return true
		}
	}
	return false
}

// check verifies the round's reports and, for a traced round, derives
// its per-layer values; then it drops the round's caches.
func (s *suite) check(r *roundOut) error {
	if s.tr != nil {
		r.layer = suiteLayers(s.tr.addProgram(s.ptr.Snapshot(), s.offset), s.events)
	}
	experiments.ResetCaches()
	for i, id := range s.ids {
		if s.texts[i] != nil && digest(s.texts[i]) != s.ref.Digests[id] {
			fmt.Fprintf(os.Stderr, "suite: %s report differs from the reference\n", id)
			r.ops[0].cause = causeWrong
		}
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (s *suite) finish([]*roundOut) error { return nil }

func (s *suite) layers([]*roundOut) map[string]float64 { return nil }

func (s *suite) unmeasured() map[string]string {
	inGrid := "runs inside the experiment grid with no span around it"
	out := map[string]string{
		"spec.build_us":                 "spec.Build " + inGrid,
		"spec.build_s":                  "spec.Build " + inGrid,
		"fastpath.tap_events_per_s":     "the suite runs no sampled cells",
		"sim.runner_events_per_s":       "replay spans carry no event count, so runner passes are not separable",
		"sim.predictions":               "reports carry accuracy rates, not counts; the report digests pin the outputs",
		"sim.mispredictions":            "reports carry accuracy rates, not counts; the report digests pin the outputs",
		"fastpath.gag_events_per_s":     "replay spans carry no event count per loop family",
		"fastpath.pag_events_per_s":     "replay spans carry no event count per loop family",
		"fastpath.pap_events_per_s":     "replay spans carry no event count per loop family",
		"fastpath.generic_events_per_s": "replay spans carry no event count per loop family",
		"fastpath.static_events_per_s":  "replay spans carry no event count per loop family",
	}
	return out
}

func (s *suite) roundSeconds() float64 { return 1.8 }

func (s *suite) limit() time.Duration { return 0 }

func (s *suite) tearDown() { experiments.ResetCaches() }

// writeSuiteReference renders every experiment at the reference budget
// on the interpretive runner and records the report digests.
func writeSuiteReference(path string) error {
	ref := suiteRef{Budget: experiments.DefaultCondBranches, Digests: map[string]string{}}
	opts := experiments.Options{CondBranches: ref.Budget, DisableFastpath: true}
	for _, id := range experiments.IDs() {
		text, err := renderExperiment(id, opts)
		if err != nil {
			return err
		}
		ref.Digests[id] = digest(text)
	}
	experiments.ResetCaches()
	return writeJSON(path, ref)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
