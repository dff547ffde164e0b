// Fixture impersonating snet/internal/core for the wallclock analyzer:
// retry waits build their timers on the injected clock.
package core

import (
	"time"

	"snet/internal/clock"
)

func retryWait(c clock.Source, d time.Duration) {
	<-c.NewTimer(d).C
}

func badWait(d time.Duration) {
	<-time.After(d) // want "direct time.After"
}
