// Package fabric holds the result tiers behind rfpsimd's in-memory cache
// (docs/fabric.md). Every simulation result is a deterministic pure
// function of its content address, so a body computed once can be served
// byte-identically forever. The package provides the two tiers that
// exploit that:
//
//   - a persistent, content-addressed disk cache (DiskCache) that survives
//     restarts;
//   - single-flight dedup (FlightGroup), so concurrent identical requests
//     simulate once.
//
// Consistency is trivial by construction: entries are immutable (one
// address, one byte string, forever), so there is nothing to invalidate
// and staleness cannot exist. Every failure mode degrades to "simulate
// locally", never to a wrong answer.
package fabric

import "time"

// timeNow is indirected for tests that need deterministic mtimes.
var timeNow = time.Now

// Options configures a daemon's disk tier.
type Options struct {
	// Dir roots the persistent disk cache ("" = no disk tier).
	Dir string
	// MaxBytes caps the disk cache (0 = DefaultDiskMaxBytes, 1 GiB).
	MaxBytes int64
}

// ValidAddr reports whether s looks like a content address: 64 lowercase
// hex characters. Everything entering a file path is gated on this, so a
// hostile addr ("../../etc/passwd") can never escape the cache tree.
func ValidAddr(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
