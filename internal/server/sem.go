package server

import (
	"slices"
	"sync"
)

// sem is the weighted semaphore behind every slot scope of the server:
// admission, each tenant's cells and the global cell pool. Acquisition
// is all-or-nothing, so two requests never each hold part of what both
// need, and waiters are served first-in first-out, so a wide request is
// not overtaken by a stream of narrow ones.
type sem struct {
	mu      sync.Mutex
	size    int // capacity in units
	limit   int // cap on held+waiting units; 0 = unbounded
	held    int
	waiting int
	queue   []*semWaiter
}

type semWaiter struct {
	n     int
	ready chan struct{} // closed once the units are granted
}

func newSem(size, limit int) *sem { return &sem{size: max(1, size), limit: limit} }

// acquire takes n units at once (capped at the capacity) and returns the
// func that gives them back. It fails holding nothing when the caller
// would push held+waiting past the limit, or when done closes first; a
// cancelled waiter wakes the waiters queued behind it.
func (s *sem) acquire(done <-chan struct{}, n int) (release func(), ok bool) {
	n = min(n, s.size)
	release = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.held -= n
		s.grant()
	}
	s.mu.Lock()
	if len(s.queue) == 0 && s.held+n <= s.size {
		s.held += n
		s.mu.Unlock()
		return release, true
	}
	if s.limit > 0 && s.held+s.waiting+n > s.limit {
		s.mu.Unlock()
		return nil, false
	}
	w := &semWaiter{n: n, ready: make(chan struct{})}
	s.queue = append(s.queue, w)
	s.waiting += n
	s.mu.Unlock()
	select {
	case <-w.ready:
		return release, true
	case <-done:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-w.ready: // granted as done closed: hand the units back
		s.held -= n
	default:
		s.queue = slices.DeleteFunc(s.queue, func(q *semWaiter) bool { return q == w })
		s.waiting -= n
	}
	s.grant() // the departed waiter may have been the head blocking the rest
	return nil, false
}

// grant hands units to queued waiters in arrival order while the head
// fits. The caller holds mu.
func (s *sem) grant() {
	for len(s.queue) > 0 && s.held+s.queue[0].n <= s.size {
		w := s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		s.held += w.n
		s.waiting -= w.n
		close(w.ready)
	}
}

// load reports the units held plus the units waiting.
func (s *sem) load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held + s.waiting
}
