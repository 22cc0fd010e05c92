package netsim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation
// start.
type Time = int64

// Common durations in nanoseconds.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
}

// eventLess is the simulator's total execution order: timestamp, then
// scheduling sequence. seq is unique, so two events never compare
// equal and the pop order cannot depend on the heap's shape.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is the event loop: one binary min-heap over (at, seq), typed so
// that scheduling an event boxes nothing (container/heap costs one
// allocation per push). Not safe for concurrent use: the simulation
// is single-threaded by design (determinism), and reports are
// byte-stable for a given seed.
type Sim struct {
	now    Time
	events []event
	seq    uint64
	rng    *rand.Rand
}

// NewSim creates a simulator whose jitter sources derive from seed.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute time t (not before now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling into the past (%d < %d)", t, s.now))
	}
	s.seq++
	s.events = append(s.events, event{at: t, seq: s.seq, fn: fn})
	i := len(s.events) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&s.events[i], &s.events[p]) {
			break
		}
		s.events[i], s.events[p] = s.events[p], s.events[i]
		i = p
	}
}

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		panic("netsim: negative delay")
	}
	s.At(s.now+d, fn)
}

// Jitter returns a duration drawn uniformly from
// [d·(1−frac), d·(1+frac)], the simulator's model of measurement
// noise.
func (s *Sim) Jitter(d Time, frac float64) Time {
	if d == 0 || frac == 0 {
		return d
	}
	lo := float64(d) * (1 - frac)
	hi := float64(d) * (1 + frac)
	return Time(lo + s.rng.Float64()*(hi-lo))
}

// pop removes and returns the earliest pending event.
func (s *Sim) pop() event {
	e := s.events[0]
	n := len(s.events) - 1
	s.events[0] = s.events[n]
	s.events[n].fn = nil // release the closure to the GC
	s.events = s.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && eventLess(&s.events[l], &s.events[m]) {
			m = l
		}
		if r < n && eventLess(&s.events[r], &s.events[m]) {
			m = r
		}
		if m == i {
			break
		}
		s.events[i], s.events[m] = s.events[m], s.events[i]
		i = m
	}
	return e
}

// Run executes events until the queue drains.
func (s *Sim) Run() {
	for len(s.events) > 0 {
		e := s.pop()
		s.now = e.at
		e.fn()
	}
}

// RunUntil executes events with timestamps ≤ deadline, then advances
// the clock to the deadline. Later events stay queued.
func (s *Sim) RunUntil(deadline Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		e := s.pop()
		s.now = e.at
		e.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }

// Scheduled reports the total number of events scheduled since the
// simulator was created — the denominator for events-per-second
// wall-clock measurements of the engine itself.
func (s *Sim) Scheduled() uint64 { return s.seq }
