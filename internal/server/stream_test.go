package server

// Streaming suite: the NDJSON event contract. Interval and verdict
// events precede their cell's final line, every event line is flushed
// as it is written, keepalives cover compute gaps, and a client that
// stops accepting writes aborts its own grid without wedging the
// server.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"twolevel/internal/predictor"
	"twolevel/internal/spec"
)

// streamRequest posts a streaming grid request and decodes every NDJSON
// line into the typed event form.
func streamRequest(t *testing.T, client *http.Client, url, tenant string, req GridRequest) []streamEvent {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Tenant", tenant)
	res, err := client.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", res.StatusCode)
	}
	var events []streamEvent
	dec := json.NewDecoder(res.Body)
	for {
		var ev streamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	return events
}

// TestStreamTypedEvents drives a sampled, profiled streaming grid and
// checks the full event grammar: per cell, its interval samples and
// verdicts strictly precede the cell line; a progress line follows each
// cell; the summary closes the stream; and the interval series is
// complete (samples cover exactly the cell's predictions).
func TestStreamTypedEvents(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const interval = 256
	events := streamRequest(t, ts.Client(), ts.URL, "streamer", GridRequest{
		Bench: testBench, Specs: testSpecs, Branches: testBranches,
		Stream: true, Interval: interval, TopMispredicted: 4,
	})
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	if last := events[len(events)-1]; last.Type != "summary" || last.Summary == nil {
		t.Fatalf("stream did not end with a summary: %+v", last)
	}

	type pending struct {
		samples  []float64 // accuracy per sample, order of arrival
		branches uint64    // last sample's cumulative branch count
		preds    uint64    // summed predictions across samples
		verdicts int
	}
	open := map[string]*pending{} // spec -> events seen before its cell line
	var cells []Cell
	var progress []progressEvent
	for i, ev := range events {
		switch ev.Type {
		case "interval":
			if ev.Interval == nil || ev.Spec == "" {
				t.Fatalf("event %d: malformed interval: %+v", i, ev)
			}
			p := open[ev.Spec]
			if p == nil {
				p = &pending{}
				open[ev.Spec] = p
			}
			if p.verdicts > 0 {
				t.Fatalf("event %d: interval after verdicts for %s", i, ev.Spec)
			}
			p.samples = append(p.samples, ev.Interval.Accuracy)
			p.branches = ev.Interval.Branches
			p.preds += ev.Interval.Predictions
		case "verdict":
			if ev.Verdict == nil || ev.Spec == "" {
				t.Fatalf("event %d: malformed verdict: %+v", i, ev)
			}
			v := ev.Verdict
			if v.PC == "" || !strings.HasPrefix(v.PC, "0x") || v.Summary == "" {
				t.Fatalf("event %d: verdict payload incomplete: %+v", i, v)
			}
			switch v.Verdict {
			case "well-predicted", "warmup-dominated", "inherently-variable", "automaton-thrash":
			default:
				t.Fatalf("event %d: unexpected verdict %q", i, v.Verdict)
			}
			open[ev.Spec].verdicts++
		case "cell":
			if ev.Cell == nil {
				t.Fatalf("event %d: cell event without payload", i)
			}
			c := *ev.Cell
			cells = append(cells, c)
			p := open[c.Spec]
			if p == nil {
				t.Fatalf("event %d: cell %s arrived before any interval", i, c.Spec)
			}
			if len(p.samples) == 0 || p.verdicts == 0 || p.verdicts > 4 {
				t.Fatalf("cell %s: %d samples, %d verdicts", c.Spec, len(p.samples), p.verdicts)
			}
			if p.preds != c.Predictions || p.branches != c.Predictions {
				t.Errorf("cell %s: samples cover %d predictions ending at %d, cell has %d",
					c.Spec, p.preds, p.branches, c.Predictions)
			}
			delete(open, c.Spec)
		case "progress":
			if ev.Progress == nil {
				t.Fatalf("event %d: progress event without payload", i)
			}
			progress = append(progress, *ev.Progress)
			if got, want := ev.Progress.Done+ev.Progress.Failed, len(cells); got != want {
				t.Errorf("event %d: progress settles %d cells, %d streamed", i, got, want)
			}
		case "keepalive", "summary":
		default:
			t.Fatalf("event %d: unknown type %q", i, ev.Type)
		}
	}
	if len(open) != 0 {
		t.Fatalf("intervals streamed for specs that never landed: %v", open)
	}
	if len(cells) != len(testSpecs) || len(progress) != len(testSpecs) {
		t.Fatalf("streamed %d cells / %d progress lines, want %d each", len(cells), len(progress), len(testSpecs))
	}
	for i, c := range cells {
		assertCellMatches(t, c, directResult(t, testSpecs[i], testBranches))
	}
	final := progress[len(progress)-1]
	if final.Done != len(testSpecs) || final.Failed != 0 || final.Planned != len(testSpecs) {
		t.Fatalf("final progress = %+v", final)
	}
}

func TestStreamRequestValidation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  GridRequest
	}{
		{"interval without stream", GridRequest{
			Bench: testBench, Specs: testSpecs[:1], Branches: testBranches, Interval: 100,
		}},
		{"verdicts without stream", GridRequest{
			Bench: testBench, Specs: testSpecs[:1], Branches: testBranches, TopMispredicted: 4,
		}},
		{"over the verdict cap", GridRequest{
			Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
			Stream: true, TopMispredicted: maxVerdicts + 1,
		}},
		{"interval too fine", GridRequest{
			Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
			Stream: true, Interval: 1, // 2000 samples > default 512 cap
		}},
	}
	for _, c := range cases {
		res, _ := postGrid(t, ts.Client(), ts.URL, "validator", c.req)
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, res.StatusCode)
		}
	}
}

// streamRecorder is an in-process ResponseWriter that counts writes and
// flushes, and can start refusing writes mid-stream like a socket whose
// write deadline expired.
type streamRecorder struct {
	mu        sync.Mutex
	header    http.Header
	status    int
	writes    int
	flushes   int
	failAfter int // writes accepted before erroring (0 = unlimited)
	body      bytes.Buffer
}

func newStreamRecorder(failAfter int) *streamRecorder {
	return &streamRecorder{header: make(http.Header), failAfter: failAfter}
}

func (r *streamRecorder) Header() http.Header { return r.header }

func (r *streamRecorder) WriteHeader(status int) { r.status = status }

func (r *streamRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failAfter > 0 && r.writes >= r.failAfter {
		return 0, errors.New("i/o timeout: client stopped reading")
	}
	r.writes++
	return r.body.Write(p)
}

func (r *streamRecorder) FlushError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushes++
	return nil
}

func (r *streamRecorder) counts() (writes, flushes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writes, r.flushes
}

// postStream drives one streaming request straight through the handler
// with rec as the client.
func postStream(t *testing.T, s *Server, rec http.ResponseWriter, tenant string, req GridRequest) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq := httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body))
	hreq.Header.Set("X-Tenant", tenant)
	s.Handler().ServeHTTP(rec, hreq)
}

// TestStreamFlushesEveryEvent pins the flush discipline: one flush per
// event line, so a consumer behind any buffering proxy sees each event
// as it settles.
func TestStreamFlushesEveryEvent(t *testing.T) {
	s := New(Config{KeepAliveInterval: -1}) // no heartbeat: deterministic line count
	rec := newStreamRecorder(0)
	postStream(t, s, rec, "flusher", GridRequest{
		Bench: testBench, Specs: testSpecs, Branches: testBranches, Stream: true,
	})
	writes, flushes := rec.counts()
	// Two cells -> cell+progress each, plus the summary.
	if want := 2*len(testSpecs) + 1; writes != want {
		t.Fatalf("wrote %d lines, want %d:\n%s", writes, want, rec.body.String())
	}
	if flushes != writes {
		t.Fatalf("flushed %d times for %d lines — events are sitting in a buffer", flushes, writes)
	}
	if n := bytes.Count(rec.body.Bytes(), []byte("\n")); n != writes {
		t.Fatalf("%d newlines for %d writes — lines are not one event each", n, writes)
	}
}

// TestStreamSlowClientAborts pins the eviction contract: once a client
// stops accepting writes, the next event write fails, the grid aborts
// (the request lands as failed) and the server keeps serving others.
func TestStreamSlowClientAborts(t *testing.T) {
	s := New(Config{KeepAliveInterval: -1})
	rec := newStreamRecorder(2) // accept cell+progress of the first cell, then die
	postStream(t, s, rec, "stalled", GridRequest{
		Bench: testBench, Specs: testSpecs, Branches: testBranches, Stream: true,
	})
	if writes, _ := rec.counts(); writes != 2 {
		t.Fatalf("dead client absorbed %d writes, want 2", writes)
	}
	st, ok := s.ten.lookup("stalled")
	if !ok {
		t.Fatal("tenant not registered")
	}
	if snap := st.mon.Snapshot(); snap.Failed != 1 || snap.Completed != 0 {
		t.Fatalf("stalled request counters = %+v, want failed=1", snap)
	}

	// A healthy sibling on the same server still gets a full stream.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	events := streamRequest(t, ts.Client(), ts.URL, "healthy", GridRequest{
		Bench: testBench, Specs: testSpecs, Branches: testBranches, Stream: true,
	})
	var cells int
	for _, ev := range events {
		if ev.Type == "cell" {
			cells++
		}
	}
	if cells != len(testSpecs) {
		t.Fatalf("healthy sibling streamed %d cells, want %d", cells, len(testSpecs))
	}
}

// TestStreamWriterStickyError pins the writer's failure latch: after one
// failed send every later send returns the same error without touching
// the connection, and close() joins the heartbeat.
func TestStreamWriterStickyError(t *testing.T) {
	s := New(Config{KeepAliveInterval: -1})
	rec := newStreamRecorder(1)
	sw := s.newStreamWriter(rec)
	defer sw.close()
	if err := sw.send(streamEvent{Type: "progress", Progress: &progressEvent{}}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	err := sw.send(streamEvent{Type: "keepalive"})
	if err == nil {
		t.Fatal("send into a dead client did not fail")
	}
	if err2 := sw.send(streamEvent{Type: "keepalive"}); err2 != err {
		t.Fatalf("error not sticky: %v then %v", err, err2)
	}
	if writes, _ := rec.counts(); writes != 1 {
		t.Fatalf("dead client absorbed %d writes, want 1", writes)
	}
}

// TestStreamKeepalive holds a grid on a gated predictor and requires
// heartbeat lines while nothing else can be streamed.
func TestStreamKeepalive(t *testing.T) {
	gate := make(chan struct{})
	cfg := gatedConfig(Config{KeepAliveInterval: 5 * time.Millisecond}, gate)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches, Stream: true,
	})
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/grid", bytes.NewReader(body))
	hreq.Header.Set("X-Tenant", "heartbeat")
	res, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()

	sc := bufio.NewScanner(res.Body)
	keepalives, cells := 0, 0
	sawSummary := false
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "keepalive":
			keepalives++
			if keepalives == 2 && cells == 0 {
				close(gate) // two heartbeats observed mid-compute; let the grid finish
			}
		case "cell":
			cells++
		case "summary":
			sawSummary = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if keepalives < 2 {
		t.Fatalf("saw %d keepalives, want >= 2", keepalives)
	}
	if cells != 1 || !sawSummary {
		t.Fatalf("after the gate opened: %d cells, summary=%v", cells, sawSummary)
	}
}

// TestStreamSummaryCountsCellsFailedWaitingForSlots: a streamed grid
// whose deadline expires while it waits for its tenant's cell slot must
// still account for every planned cell in its summary line.
func TestStreamSummaryCountsCellsFailedWaitingForSlots(t *testing.T) {
	holdSpec := spec.MustParse("GAg(HR(1,,8-sr),1xPHT(2^8,A2))").String()
	gate := make(chan struct{})
	holding := make(chan struct{})
	var once sync.Once
	cfg := Config{TenantCells: 1}
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil || sp.String() != holdSpec {
			return p, err
		}
		// Built only once the cell slots are taken.
		once.Do(func() { close(holding) })
		return &blockingPredictor{Predictor: p, gate: gate}, nil
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	held := make(chan int, 1)
	go func() {
		res, _ := postGrid(t, ts.Client(), ts.URL, "shared", GridRequest{
			Bench: testBench, Specs: []string{holdSpec}, Branches: testBranches,
		})
		held <- res.StatusCode
	}()
	<-holding

	events := streamRequest(t, ts.Client(), ts.URL, "shared", GridRequest{
		Bench: testBench, Specs: testSpecs, Branches: testBranches, Stream: true, TimeoutMS: 200,
	})
	close(gate)
	if status := <-held; status != http.StatusOK {
		t.Errorf("holding request status = %d", status)
	}
	last := events[len(events)-1]
	if last.Type != "summary" {
		t.Fatalf("last event = %+v, want the summary", last)
	}
	sum := last.Summary
	if sum.Completed+sum.Failed != len(testSpecs) || sum.Failed == 0 {
		t.Fatalf("summary completed=%d failed=%d, want %d cells accounted with failures",
			sum.Completed, sum.Failed, len(testSpecs))
	}
}
