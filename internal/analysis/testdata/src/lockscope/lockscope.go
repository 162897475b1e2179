// Fixture for the lockscope analyzer: no blocking operation while a
// configured mutex is held.
package lockscope

import (
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	ch chan int
}

type Store struct{}

func (st *Store) Get(k string) []byte { return nil }

func (s *S) SendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

func (s *S) RecvUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive while s\.mu is held`
}

func (s *S) SleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking call time\.Sleep while s\.mu is held`
	s.mu.Unlock()
}

func (s *S) StoreUnderLock(st *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = st.Get("k") // want `blocking call Store\.Get while s\.mu is held`
}

func (s *S) SelectUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select while s\.mu is held`
	case v := <-s.ch:
		_ = v
	default:
	}
}

// SendOutsideLock: the critical section closed before the send.
func (s *S) SendOutsideLock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

// SendInGoroutine: the goroutine body runs outside the critical section.
func (s *S) SendInGoroutine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}

// SendAfterEarlyUnlock: both sends are clean — the first runs in the hole
// left by the early Unlock, the second after the normal Unlock.
func (s *S) SendAfterEarlyUnlock(ok bool) {
	s.mu.Lock()
	if !ok {
		s.mu.Unlock()
		s.ch <- 1
		return
	}
	s.mu.Unlock()
	s.ch <- 1
}

// StoreOutsideThenLock: the blocking fetch happens first, the lock guards
// only the in-memory swap — the sanctioned bytes-outside-lock shape.
func (s *S) StoreOutsideThenLock(st *Store) []byte {
	b := st.Get("k")
	s.mu.Lock()
	defer s.mu.Unlock()
	return b
}

// SleepAfterNestedExit: the early Unlock sits in a branch that leaves
// through an if/else whose arms both return, so the lock is still held
// after the branch.
func (s *S) SleepAfterNestedExit(c, x bool) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		if x {
			return
		} else {
			return
		}
	}
	time.Sleep(time.Millisecond) // want `blocking call time\.Sleep while s\.mu is held`
	s.mu.Unlock()
}
