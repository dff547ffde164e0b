// Fixture impersonating snet/internal/stream for the wallclock analyzer.
package stream

import (
	"time"

	"snet/internal/clock"
)

func pendingFor(since time.Time) time.Duration {
	return clock.Source{}.Now().Sub(since)
}

func bad(since time.Time) time.Duration {
	return time.Since(since) // want "direct time.Since"
}
