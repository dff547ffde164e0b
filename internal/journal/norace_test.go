//go:build !race

package journal_test

import "testing"

func skipIfRace(t *testing.T) {}
