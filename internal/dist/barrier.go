package dist

import (
	"sync"
	"sync/atomic"
)

// barrier is a reusable round barrier: await blocks until all n
// participants have arrived, then releases them together and resets for
// the next round. The runtime uses one barrier per network, re-awaited
// once per communication round, so the shard goroutines stay in
// lockstep without allocating per-round synchronization state.
//
// The barrier doubles as the runtime's cancellation point. An outside
// watcher (network.run's context watcher) may poison it at any moment;
// the poison is sampled exactly once per round, by whichever participant
// trips the barrier, and the sampled decision is published to every
// participant of that round. All n shards therefore agree on the round
// at which to abort — the property that keeps a cancelled run from
// deadlocking: a shard that stopped flooding while a neighbour still
// expects its round-r batch would block that neighbour forever.
type barrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	phase uint64 // incremented each time the barrier trips (sense reversal)
	// poisoned is the asynchronous stop request; stop is the per-phase
	// consensus decision derived from it, written by the tripping
	// participant before the broadcast and read by every awaiter under
	// the mutex after release.
	poisoned atomic.Bool
	stop     bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

// poison requests a coordinated stop: the next time the barrier trips,
// every participant's await returns true. Safe to call from any
// goroutine at any time.
func (b *barrier) poison() { b.poisoned.Store(true) }

// reset clears a previous run's poison. Callers must guarantee no
// goroutine is at or approaching the barrier (network.run joins every
// worker of the previous run before returning).
func (b *barrier) reset() {
	b.poisoned.Store(false)
	b.stop = false
}

// await blocks until n participants (including the caller) have reached
// the barrier for the current phase, and reports whether the run was
// poisoned: the return value is identical for every participant of the
// phase, so either all of them continue to the next round or all of
// them abort.
func (b *barrier) await() bool {
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.stop = b.poisoned.Load()
		b.phase++
		b.cond.Broadcast()
		stop := b.stop
		b.mu.Unlock()
		return stop
	}
	for b.phase == phase {
		b.cond.Wait()
	}
	stop := b.stop
	b.mu.Unlock()
	return stop
}
