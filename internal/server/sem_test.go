package server

import (
	"sync"
	"testing"
	"time"
)

// semResult is the outcome of one asynchronous acquire.
type semResult struct {
	release func()
	ok      bool
}

// acquireAsync starts acquire(done, n) on its own goroutine.
func acquireAsync(s *sem, done <-chan struct{}, n int) <-chan semResult {
	out := make(chan semResult, 1)
	go func() {
		release, ok := s.acquire(done, n)
		out <- semResult{release, ok}
	}()
	return out
}

// heldUnits reads the units currently held (waiters excluded).
func (s *sem) heldUnits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// mustAcquire takes n units without waiting or fails the test: its done
// channel is already closed, so an acquire that would wait gives up.
func mustAcquire(t *testing.T, s *sem, n int) func() {
	t.Helper()
	closed := make(chan struct{})
	close(closed)
	release, ok := s.acquire(closed, n)
	if !ok {
		t.Fatalf("acquire(%d) did not succeed at once", n)
	}
	return release
}

// granted waits for an asynchronous acquire to succeed.
func granted(t *testing.T, what string, c <-chan semResult) func() {
	t.Helper()
	select {
	case r := <-c:
		if !r.ok {
			t.Fatalf("%s refused", what)
		}
		return r.release
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never granted", what)
		return nil
	}
}

// assertPending fails if an asynchronous acquire has returned.
func assertPending(t *testing.T, what string, c <-chan semResult) {
	t.Helper()
	select {
	case r := <-c:
		t.Fatalf("%s returned early (ok %v)", what, r.ok)
	default:
	}
}

func TestSemaphoreAllOrNothing(t *testing.T) {
	s := newSem(2, 0)
	releaseA := mustAcquire(t, s, 1)
	b := acquireAsync(s, nil, 2)
	waitFor(t, "the 2-unit waiter to queue", func() bool { return s.load() == 3 })
	// The waiter holds nothing while it waits: one unit stays free.
	if held := s.heldUnits(); held != 1 {
		t.Fatalf("held = %d while the 2-unit request waits, want 1", held)
	}
	assertPending(t, "acquire(2)", b)
	releaseA()
	releaseB := granted(t, "acquire(2)", b)
	if held := s.heldUnits(); held != 2 {
		t.Fatalf("held = %d after the grant, want 2", held)
	}
	releaseB()
	if n := s.load(); n != 0 {
		t.Fatalf("load = %d after every release, want 0", n)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	s := newSem(2, 0)
	releaseA := mustAcquire(t, s, 1)
	b := acquireAsync(s, nil, 2)
	waitFor(t, "acquire(2) to queue", func() bool { return s.load() == 3 })
	c := acquireAsync(s, nil, 1)
	waitFor(t, "acquire(1) to queue", func() bool { return s.load() == 4 })
	// A unit is free, but the later, narrower request must not overtake.
	if held := s.heldUnits(); held != 1 {
		t.Fatalf("held = %d, want 1: acquire(1) overtook the queued acquire(2)", held)
	}
	assertPending(t, "acquire(1)", c)
	releaseA()
	releaseB := granted(t, "acquire(2)", b)
	assertPending(t, "acquire(1)", c)
	releaseB()
	granted(t, "acquire(1)", c)()
	if n := s.load(); n != 0 {
		t.Fatalf("load = %d after every release, want 0", n)
	}
}

func TestSemaphoreCancelledWaiterWakesNext(t *testing.T) {
	s := newSem(2, 0)
	releaseA := mustAcquire(t, s, 1)
	cancelB := make(chan struct{})
	b := acquireAsync(s, cancelB, 2)
	waitFor(t, "acquire(2) to queue", func() bool { return s.load() == 3 })
	c := acquireAsync(s, nil, 1)
	waitFor(t, "acquire(1) to queue", func() bool { return s.load() == 4 })

	// Cancelling the head waiter unblocks the one queued behind it.
	close(cancelB)
	select {
	case r := <-b:
		if r.ok {
			t.Fatal("cancelled acquire succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled acquire never returned")
	}
	releaseC := granted(t, "acquire(1) behind the cancelled waiter", c)
	if held, n := s.heldUnits(), s.load(); held != 2 || n != 2 {
		t.Fatalf("held=%d load=%d, want 2/2: the cancelled waiter kept units", held, n)
	}
	releaseA()
	releaseC()
	if n := s.load(); n != 0 {
		t.Fatalf("load = %d after every release, want 0", n)
	}
}

func TestSemaphoreCapsAtCapacity(t *testing.T) {
	s := newSem(2, 0)
	release := mustAcquire(t, s, 5)
	if held := s.heldUnits(); held != 2 {
		t.Fatalf("held = %d for acquire(5) on capacity 2, want 2", held)
	}
	release()
	if n := s.load(); n != 0 {
		t.Fatalf("load = %d after release, want 0", n)
	}
}

func TestSemaphoreRefusesPastLimit(t *testing.T) {
	s := newSem(1, 2) // one holder, one waiter
	releaseA := mustAcquire(t, s, 1)
	b := acquireAsync(s, nil, 1)
	waitFor(t, "the waiter to queue", func() bool { return s.load() == 2 })
	select {
	case r := <-acquireAsync(s, nil, 1):
		if r.ok {
			t.Fatal("acquire past the limit succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire past the limit waited instead of being refused")
	}
	if n := s.load(); n != 2 {
		t.Fatalf("load = %d after a refusal, want 2", n)
	}
	releaseA()
	granted(t, "the queued waiter", b)()
}

// TestSemaphoreNoPartialHoldDeadlock runs the shape that deadlocked the
// per-slot loops: many acquirers that each need the whole capacity.
func TestSemaphoreNoPartialHoldDeadlock(t *testing.T) {
	s := newSem(2, 0)
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				release, ok := s.acquire(stop, n)
				if !ok {
					t.Errorf("acquire(%d) still waiting at the deadline", n)
					return
				}
				release()
			}
		}(1 + g%2)
	}
	wg.Wait()
	if n := s.load(); n != 0 {
		t.Fatalf("load = %d after every release, want 0", n)
	}
}
