// Package uuid implements RFC 4122 UUIDs as used for domain, network and
// storage object identity. Only generation (v4 random and v5-like
// name-derived), parsing and canonical formatting are provided.
package uuid

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// UUID is a 128-bit universally unique identifier.
type UUID [16]byte

// Nil is the all-zero UUID.
var Nil UUID

// New returns a version-4 (random) UUID.
func New() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does the
		// process cannot safely generate identity and must stop.
		panic("uuid: crypto/rand failed: " + err.Error())
	}
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // RFC 4122 variant
	return u
}

// FromName returns a deterministic UUID derived from name. It is used by
// the test driver and by simulations that need reproducible identity.
func FromName(name string) UUID {
	sum := sha256.Sum256([]byte(name))
	var u UUID
	copy(u[:], sum[:16])
	u[6] = (u[6] & 0x0f) | 0x50 // mark name-derived (version 5 style)
	u[8] = (u[8] & 0x3f) | 0x80
	return u
}

// Parse accepts the canonical 8-4-4-4-12 form, with or without braces,
// and the bare 32-hex-digit form, in any case. It decodes the digits
// straight into the result and allocates only on error.
func Parse(s string) (UUID, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(s, "}"), "{")
	if len(s)-strings.Count(s, "-") != 32 {
		return Nil, fmt.Errorf("uuid: invalid length in %q", s)
	}
	if len(s) == 36 {
		// Validate hyphen positions in canonical form.
		for _, i := range []int{8, 13, 18, 23} {
			if s[i] != '-' {
				return Nil, fmt.Errorf("uuid: misplaced hyphen in %q", s)
			}
		}
	} else if len(s) != 32 {
		return Nil, fmt.Errorf("uuid: invalid format %q", s)
	}
	var u UUID
	for i, n := 0, 0; n < len(u); n, i = n+1, i+2 {
		if s[i] == '-' { // only ever before a pair, checked above
			i++
		}
		if _, err := hex.Decode(u[n:n+1], []byte(s[i:i+2])); err != nil {
			return Nil, fmt.Errorf("uuid: %q: %v", s, err)
		}
	}
	return u, nil
}

// String renders the canonical lower-case 8-4-4-4-12 form.
func (u UUID) String() string {
	var b [36]byte
	hex.Encode(b[:8], u[:4])
	b[8] = '-'
	hex.Encode(b[9:13], u[4:6])
	b[13] = '-'
	hex.Encode(b[14:18], u[6:8])
	b[18] = '-'
	hex.Encode(b[19:23], u[8:10])
	b[23] = '-'
	hex.Encode(b[24:], u[10:])
	return string(b[:])
}

// IsNil reports whether u is the all-zero UUID.
func (u UUID) IsNil() bool { return u == Nil }
