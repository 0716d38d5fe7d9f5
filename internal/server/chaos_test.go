// Chaos suite: the server driven with internal/faultinject and hostile
// clients — panicking cells, torn captures, mid-request cancels,
// slow-loris bodies — asserting the robustness contract: shed with
// 429s, never crash, never block unrelated tenants, and keep serving
// answers bit-identical to direct sim.Run throughout.
//
// Every chaos test serves through startChaos: each request runs under a
// client deadline far below RequestTimeout, so a hang fails the test
// instead of passing slowly, and no goroutine may outlive the server.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"twolevel/internal/faultinject"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// chaosDeadline bounds every chaos request, well below the server's
// default RequestTimeout (120 s).
const chaosDeadline = 10 * time.Second

// goroutineSlack is how many goroutines above the pre-server baseline
// may remain after the server closes: room for runtime and net/http
// housekeeping that is not the server's.
const goroutineSlack = 2

// startChaos serves s on a test server and returns it with a client
// whose every request runs under chaosDeadline. At cleanup it closes the
// server and requires the goroutine count to fall back to its baseline
// (plus goroutineSlack) within 2 s: no handler, stream heartbeat or slot
// waiter may outlive the server.
func startChaos(t *testing.T, s *Server) (*httptest.Server, *http.Client) {
	t.Helper()
	base := runtime.NumGoroutine()
	ts := httptest.NewServer(s.Handler())
	client := &http.Client{Transport: ts.Client().Transport, Timeout: chaosDeadline}
	t.Cleanup(func() {
		ts.Close()
		deadline := time.Now().Add(2 * time.Second)
		for n := runtime.NumGoroutine(); n > base+goroutineSlack; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines 2 s after close, baseline %d (+%d slack)", n, base, goroutineSlack)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	return ts, client
}

// panicPredictor panics on the Nth prediction.
type panicPredictor struct {
	predictor.Predictor
	after int
	n     int
}

func (p *panicPredictor) Predict(b trace.Branch) bool {
	if p.n++; p.n >= p.after {
		panic("chaos: poisoned predictor")
	}
	return p.Predictor.Predict(b)
}

// poisonConfig makes the named spec panic mid-run, all others normal.
func poisonConfig(cfg Config, poison string) Config {
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil {
			return nil, err
		}
		if sp.String() == poison {
			return &panicPredictor{Predictor: p, after: 100}, nil
		}
		return p, nil
	}
	return cfg
}

func TestChaosPanickingCellIsolated(t *testing.T) {
	specs := []string{
		testSpecs[0],
		"GAg(HR(1,,8-sr),1xPHT(2^8,A2))", // the poisoned cell
		testSpecs[1],
	}
	poison := spec.MustParse(specs[1]).String()
	s := New(poisonConfig(Config{}, poison))
	ts, client := startChaos(t, s)

	res, gr := postGrid(t, client, ts.URL, "chaotic", GridRequest{
		Bench: testBench, Specs: specs, Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 despite the panic", res.StatusCode)
	}
	if gr.Completed != 2 || gr.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 2/1", gr.Completed, gr.Failed)
	}
	// The poisoned cell is attributed, with the panic surfaced.
	bad := gr.Cells[1]
	if !strings.Contains(bad.Error, "panic") || !strings.Contains(bad.Error, "poisoned") {
		t.Errorf("poisoned cell error = %q, want the recovered panic", bad.Error)
	}
	if bad.Attempts < 2 {
		t.Errorf("poisoned cell attempts = %d, want a fallback retry", bad.Attempts)
	}
	// The healthy neighbours are bit-identical to direct runs.
	assertCellMatches(t, gr.Cells[0], directResult(t, specs[0], testBranches))
	assertCellMatches(t, gr.Cells[2], directResult(t, specs[2], testBranches))
	// The batch pass fell back to per-cell isolation.
	if fb := s.grid.Snapshot().BatchFallbacks; fb == 0 {
		t.Error("no batch fallback recorded")
	}
	// The process keeps serving.
	res, gr = postGrid(t, client, ts.URL, "after", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 0 {
		t.Fatalf("post-chaos request: status=%d failed=%d", res.StatusCode, gr.Failed)
	}
}

func TestChaosCaptureFaultIsTransient(t *testing.T) {
	// The first interpreter open tears mid-capture; later opens heal.
	var mu sync.Mutex
	opens := 0
	cfg := Config{}
	cfg.openBench = func(b *prog.Benchmark, ds prog.DataSet) (trace.Source, error) {
		src, err := b.NewSource(ds)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		opens++
		torn := opens == 1
		mu.Unlock()
		if torn {
			return &faultinject.ErrorAfter{Src: src, N: 100, Err: errors.New("chaos: torn capture")}, nil
		}
		return src, nil
	}
	s := New(cfg)
	ts, client := startChaos(t, s)

	req := GridRequest{Bench: testBench, Specs: testSpecs[:1], Branches: testBranches}
	res, _ := postGrid(t, client, ts.URL, "unlucky", req)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("torn capture status = %d, want 500", res.StatusCode)
	}
	// The fault is not sticky: the cache entry was reset, the retry
	// re-captures and serves the exact direct-run answer.
	res, gr := postGrid(t, client, ts.URL, "unlucky", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healed capture status = %d, want 200", res.StatusCode)
	}
	assertCellMatches(t, gr.Cells[0], directResult(t, testSpecs[0], testBranches))
}

func TestChaosMidRequestClientCancel(t *testing.T) {
	const budget = 200_000
	slowSpec := spec.MustParse(testSpecs[1]).String()
	cfg := Config{MaxBranches: budget}
	cfg.buildPredictor = func(sp spec.Spec, td *spec.TrainingData) (predictor.Predictor, error) {
		p, err := spec.Build(sp, td)
		if err != nil {
			return nil, err
		}
		if sp.String() == slowSpec {
			return &slowPredictor{Predictor: p}, nil
		}
		return p, nil
	}
	s := New(cfg)
	ts, client := startChaos(t, s)

	// Warm the capture so the cancel lands mid-simulation.
	if res, _ := postGrid(t, client, ts.URL, "warm", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: budget,
	}); res.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", res.StatusCode)
	}

	body, _ := json.Marshal(GridRequest{Bench: testBench, Specs: testSpecs[1:2], Branches: budget})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "quitter")
	errc := make(chan error, 1)
	go func() {
		res, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "request admitted", func() bool {
		return s.agg.Snapshot().Admitted >= 2
	})
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned no client error")
	}
	// The handler must settle (no leaked in-flight work)...
	waitFor(t, "handler to settle", func() bool {
		snap := s.agg.Snapshot()
		return snap.Completed+snap.Failed >= 2
	})
	// ...and the server keeps serving correct answers.
	res, gr := postGrid(t, client, ts.URL, "survivor", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 0 {
		t.Fatalf("post-cancel request: status=%d failed=%d", res.StatusCode, gr.Failed)
	}
	assertCellMatches(t, gr.Cells[0], directResult(t, testSpecs[0], testBranches))
}

func TestChaosSlowLorisBodyFreesSlot(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, WriteTimeout: 300 * time.Millisecond})
	ts, client := startChaos(t, s)

	// A client that sends headers plus a byte of body, then stalls. It
	// passes admission (headers carry the tenant) and parks in the body
	// read — the read deadline must evict it, freeing the only slot.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/grid HTTP/1.1\r\nHost: loris\r\nX-Tenant: loris\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n{")

	waitFor(t, "loris to hold the slot", func() bool {
		return s.admission.load() == 1
	})
	// While the loris stalls, a well-behaved request must still get
	// through once the deadline evicts it (within ~WriteTimeout).
	res, gr := postGrid(t, client, ts.URL, "patient", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	})
	if res.StatusCode != http.StatusOK || gr.Failed != 0 {
		t.Fatalf("patient request: status=%d", res.StatusCode)
	}
	waitFor(t, "loris to be evicted", func() bool {
		return s.admission.load() == 0
	})
	if snap := s.agg.Snapshot(); snap.Rejected == 0 {
		t.Error("evicted slow-loris not counted as rejected")
	}
}

func TestChaosNoisyNeighborCannotStarveQuietTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained chaos run in -short")
	}
	poison := spec.MustParse("GAg(HR(1,,8-sr),1xPHT(2^8,A2))").String()
	cfg := poisonConfig(Config{
		MaxConcurrent: 4,
		MaxQueue:      16,
		TenantCells:   2,
	}, poison)
	s := New(cfg)
	ts, client := startChaos(t, s)

	// Pre-warm so every request replays the shared capture.
	if res, _ := postGrid(t, client, ts.URL, "warm", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	}); res.StatusCode != http.StatusOK {
		t.Fatal("warm request failed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Noisy tenant: a stream of panicking grids and abandoned requests.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(GridRequest{
				Bench: testBench, Specs: []string{poison, poison}, Branches: testBranches,
			})
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/grid", bytes.NewReader(body))
				req.Header.Set("X-Tenant", "noisy")
				res, err := client.Do(req)
				if err != nil {
					// A hung grid surfaces here, at chaosDeadline.
					t.Errorf("noisy request: %v", err)
					return
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusTooManyRequests {
					t.Errorf("noisy request status = %d", res.StatusCode)
					return
				}
			}
		}()
	}

	// Quiet tenant: correct answers throughout the storm.
	want := directResult(t, testSpecs[0], testBranches)
	deadline := time.Now().Add(1500 * time.Millisecond)
	quietRuns := 0
	for time.Now().Before(deadline) {
		res, gr := postGrid(t, client, ts.URL, "quiet", GridRequest{
			Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
		})
		switch res.StatusCode {
		case http.StatusOK:
			quietRuns++
			if gr.Failed != 0 {
				t.Fatalf("quiet tenant saw failed cells: %+v", gr.Cells)
			}
			assertCellMatches(t, gr.Cells[0], want)
		case http.StatusTooManyRequests:
			// Fair shedding under a full queue is allowed; wrong answers
			// and 5xx are not.
		default:
			t.Fatalf("quiet tenant got status %d", res.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	if quietRuns == 0 {
		t.Fatal("quiet tenant never completed a request during the storm")
	}
	t.Logf("quiet tenant completed %d grids during the storm", quietRuns)

	// The server never crashed and the noisy tenant's damage is fenced:
	// its failures are per-cell, its monitor records them.
	noisy, ok := s.ten.lookup("noisy")
	if !ok {
		t.Fatal("noisy tenant never registered")
	}
	if noisy.grid.Snapshot().CellsFailed == 0 {
		t.Error("noisy tenant's poisoned cells not recorded as failures")
	}
	if res, _ := postGrid(t, client, ts.URL, "after", GridRequest{
		Bench: testBench, Specs: testSpecs[:1], Branches: testBranches,
	}); res.StatusCode != http.StatusOK {
		t.Fatalf("post-storm request status = %d", res.StatusCode)
	}
}

// TestChaosSameTenantGridsDoNotDeadlock pins the slot policy: one
// tenant whose every grid needs all of its cell slots, posting from
// several clients at once. Taking slots one at a time lets two grids
// each hold one and wait forever for the other; all-or-nothing
// acquisition must serve every grid before the test's deadline.
func TestChaosSameTenantGridsDoNotDeadlock(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MaxQueue: 8, TenantCells: 2})
	ts, client := startChaos(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	req := GridRequest{Bench: testBench, Specs: testSpecs[:2], Branches: testBranches}
	if res, _ := postGrid(t, client, ts.URL, "twin", req); res.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", res.StatusCode)
	}
	body, _ := json.Marshal(req)
	storm := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(storm) {
				hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/grid", bytes.NewReader(body))
				hreq.Header.Set("X-Tenant", "twin")
				res, err := client.Do(hreq)
				if err != nil {
					t.Errorf("grid request: %v", err)
					return
				}
				var gr GridResponse
				derr := json.NewDecoder(res.Body).Decode(&gr)
				res.Body.Close()
				if res.StatusCode != http.StatusOK || derr != nil || gr.Failed != 0 {
					t.Errorf("grid: status=%d decode=%v failed=%d cells=%+v", res.StatusCode, derr, gr.Failed, gr.Cells)
					return
				}
			}
		}()
	}
	wg.Wait()
}
