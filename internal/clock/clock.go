// Package clock is the runtime's one time seam. The wire transport's
// fault detectors (heartbeat sweep, liveness timeout, call deadlines,
// quarantine cool-down, reconnect backoff), the journal's batched-fsync
// interval, box-retry backoff and the stream linger flush read time and
// build timers only through a Clock, so tests drive all of them with a
// hand-advanced Fake instead of sleeping. The wallclock analyzer
// (internal/analysis/wallclock) bans direct time-package reads in those
// packages; this package holds the only real-time bindings.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock is a time source. The zero value reads real time and builds real
// timers; the Clock of a Fake reads and schedules on that fake.
type Clock struct {
	fake *Fake
}

// Now returns the current time as the clock sees it.
func (c Clock) Now() time.Time {
	if c.fake != nil {
		return c.fake.Now()
	}
	return time.Now()
}

// Since is time.Since against this clock.
func (c Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// NewTimer is time.NewTimer against this clock.
func (c Clock) NewTimer(d time.Duration) *Timer {
	if c.fake != nil {
		w := c.fake.arm(d, 0, nil)
		return &Timer{C: w.ch, fake: w}
	}
	t := time.NewTimer(d)
	return &Timer{C: t.C, real: t}
}

// NewTicker is time.NewTicker against this clock. It panics on a
// non-positive interval, like time.NewTicker.
func (c Clock) NewTicker(d time.Duration) *Ticker {
	if c.fake != nil {
		if d <= 0 {
			panic("clock: non-positive interval for NewTicker")
		}
		w := c.fake.arm(d, d, nil)
		return &Ticker{C: w.ch, fake: w}
	}
	t := time.NewTicker(d)
	return &Ticker{C: t.C, real: t}
}

// AfterFunc is time.AfterFunc against this clock: f runs once d has
// passed. On a Fake, f runs on the goroutine whose Advance passes the
// deadline, before that Advance returns.
func (c Clock) AfterFunc(d time.Duration, f func()) *Timer {
	if c.fake != nil {
		return &Timer{fake: c.fake.arm(d, 0, f)}
	}
	return &Timer{real: time.AfterFunc(d, f)}
}

// Timer is a one-shot timer of a Clock; C is nil for an AfterFunc timer.
type Timer struct {
	C    <-chan time.Time
	real *time.Timer
	fake *waiter
}

// Stop prevents the timer from firing; it reports whether the stop
// preempted the fire, like time.Timer.Stop.
func (t *Timer) Stop() bool {
	if t.fake != nil {
		return t.fake.stop()
	}
	return t.real.Stop()
}

// Ticker is a periodic ticker of a Clock.
type Ticker struct {
	C    <-chan time.Time
	real *time.Ticker
	fake *waiter
}

// Stop turns the ticker off.
func (t *Ticker) Stop() {
	if t.fake != nil {
		t.fake.stop()
		return
	}
	t.real.Stop()
}

// Fake is a hand-advanced time source: its time moves only on Advance,
// and the timers, tickers and AfterFuncs built on its Clock fire when an
// Advance reaches their deadline. Like time.Ticker, a fake ticker delivers
// at most one tick per Advance and drops ticks its reader has not taken.
// A Fake is safe for concurrent use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter // armed timers, tickers and AfterFuncs
}

// waiter is one armed timer, ticker (period > 0) or AfterFunc (fn != nil).
type waiter struct {
	f      *Fake
	at     time.Time
	period time.Duration
	ch     chan time.Time
	fn     func()
}

// NewFake returns a fake clock reading start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

// Clock returns the Clock that reads and schedules on f.
func (f *Fake) Clock() Clock { return Clock{fake: f} }

// Now returns the fake's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the fake's time forward by d, fires every timer, ticker
// and AfterFunc whose deadline it reaches, and returns the new time.
func (f *Fake) Advance(d time.Duration) time.Time {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var due []func()
	keep := f.waiters[:0]
	for _, w := range f.waiters {
		switch {
		case w.at.After(now):
			keep = append(keep, w)
		case w.fn != nil:
			due = append(due, w.fn)
		default:
			w.send(now)
			if w.period > 0 {
				for !w.at.After(now) {
					w.at = w.at.Add(w.period)
				}
				keep = append(keep, w)
			}
		}
	}
	clear(f.waiters[len(keep):])
	f.waiters = keep
	f.mu.Unlock()
	for _, fn := range due {
		fn()
	}
	return now
}

// Next reports how long until the earliest armed timer, ticker or
// AfterFunc fires; ok is false when nothing is armed. Tests use it to wait
// until the code under test has armed the deadline they mean to pass.
func (f *Fake) Next() (d time.Duration, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.waiters {
		if left := w.at.Sub(f.now); !ok || left < d {
			d, ok = left, true
		}
	}
	return d, ok
}

// arm registers a waiter due d from now. A non-positive d is due at once
// and fires on the next Advance, even Advance(0).
func (f *Fake) arm(d, period time.Duration, fn func()) *waiter {
	w := &waiter{f: f, period: period, fn: fn}
	if fn == nil {
		w.ch = make(chan time.Time, 1)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w.at = f.now.Add(d)
	f.waiters = append(f.waiters, w)
	return w
}

// send delivers a tick without blocking; a full channel drops it.
func (w *waiter) send(now time.Time) {
	select {
	case w.ch <- now:
	default:
	}
}

// stop disarms the waiter, reporting whether it was still armed.
func (w *waiter) stop() bool {
	f := w.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, x := range f.waiters {
		if x == w {
			f.waiters = slices.Delete(f.waiters, i, i+1)
			return true
		}
	}
	return false
}
