package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
)

// Common errors.
var (
	ErrConfig   = errors.New("core: invalid configuration")
	ErrNoAgents = errors.New("core: no agents")
	ErrClosed   = errors.New("core: session closed")
)

// Agent models one application-layer participant's *behaviour*. The
// authority drives the protocol; the agent only decides what to play and
// whether to cheat. The zero value plus a Choose function is an honest
// agent; the optional hooks inject the §5.1-style manipulations.
type Agent struct {
	// Choose returns the agent's action for the round given the agreed
	// previous outcome (nil on the first play). Returning an action
	// outside Πi models the Fig. 1 hidden-manipulation strategy. The prev
	// slice is only valid for the duration of the call (the session reuses
	// the buffer between agents); Clone it to retain it.
	Choose func(round int, prev game.Profile) int

	// TamperOpening, if non-nil, lets the agent replace its reveal after
	// the commitment was agreed (judicial must detect the mismatch).
	TamperOpening func(round int, op commit.Opening) commit.Opening

	// Withhold, if non-nil, makes the agent refuse to reveal this round.
	Withhold func(round int) bool
}

// HonestPure returns an honest agent for the elected game g playing id's
// best response to the previous outcome (the §3.2 notion of honesty).
// On the first play it plays action 0 (any legitimate action is honest).
func HonestPure(g game.Game, id int) *Agent {
	return &Agent{
		Choose: func(round int, prev game.Profile) int {
			if prev == nil {
				return 0
			}
			return game.BestResponse(g, id, prev)
		},
	}
}

// --- Canonical wire encodings -------------------------------------------------
//
// Everything the processors agree on via the BAP travels as a canonical
// string (bap.Value). Encoders are deliberately simple and deterministic;
// decoders treat malformed input as Byzantine garbage (error, never panic).

// EncodeProfile canonically encodes an action profile ("1,0,2"); -1 entries
// (unknown actions) are preserved.
func EncodeProfile(p game.Profile) string {
	var b strings.Builder
	b.Grow(4 * len(p)) // action ids are small: strconv.Itoa does not allocate below 100
	for i, a := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(a))
	}
	return b.String()
}

// DecodeProfile parses EncodeProfile output; n is the required arity.
func DecodeProfile(s string, n int) (game.Profile, error) {
	if s == "" {
		return nil, fmt.Errorf("%w: empty profile", ErrConfig)
	}
	if k := strings.Count(s, ",") + 1; k != n {
		return nil, fmt.Errorf("%w: profile arity %d, want %d", ErrConfig, k, n)
	}
	p := make(game.Profile, n)
	for i := range p {
		part, rest, _ := strings.Cut(s, ",")
		a, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%w: profile entry %q", ErrConfig, part)
		}
		p[i], s = a, rest
	}
	return p, nil
}

// EncodeDigest hex-encodes a commitment digest.
func EncodeDigest(d commit.Digest) string {
	var b strings.Builder
	b.Grow(2 * len(d))
	writeHex(&b, d[:])
	return b.String()
}

// writeHex appends the lower-case hex encoding of p to b.
func writeHex(b *strings.Builder, p []byte) {
	const hexdigits = "0123456789abcdef"
	for _, x := range p {
		b.WriteByte(hexdigits[x>>4])
		b.WriteByte(hexdigits[x&0xf])
	}
}

// DecodeDigest parses EncodeDigest output.
func DecodeDigest(s string) (commit.Digest, error) {
	var d commit.Digest
	if len(s) != 2*len(d) {
		return d, fmt.Errorf("%w: digest hex length %d", ErrConfig, len(s))
	}
	if err := unhexInto(d[:], s); err != nil {
		return commit.Digest{}, err
	}
	return d, nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	default:
		return 0, false
	}
}

// EncodeOpening canonically encodes a commitment opening as
// "<value-hex>|<nonce-hex>".
func EncodeOpening(op commit.Opening) string {
	var b strings.Builder
	b.Grow(2*len(op.Value) + 1 + 2*len(op.Nonce))
	writeHex(&b, op.Value)
	b.WriteByte('|')
	writeHex(&b, op.Nonce[:])
	return b.String()
}

// DecodeOpening parses EncodeOpening output.
func DecodeOpening(s string) (commit.Opening, error) {
	var op commit.Opening
	if k := strings.Count(s, "|") + 1; k != 2 {
		return op, fmt.Errorf("%w: opening has %d segments", ErrConfig, k)
	}
	hexValue, hexNonce, _ := strings.Cut(s, "|")
	if len(hexNonce) != 2*commit.NonceSize {
		return op, fmt.Errorf("%w: nonce hex length %d", ErrConfig, len(hexNonce))
	}
	var nonce [commit.NonceSize]byte
	if err := unhexInto(nonce[:], hexNonce); err != nil {
		return op, err
	}
	if len(hexValue)%2 != 0 {
		return op, fmt.Errorf("%w: odd hex length", ErrConfig)
	}
	value := make([]byte, len(hexValue)/2)
	if err := unhexInto(value, hexValue); err != nil {
		return op, err
	}
	op.Value, op.Nonce = value, nonce
	return op, nil
}

// unhexInto decodes the 2·len(dst) hex digits of s into dst.
func unhexInto(dst []byte, s string) error {
	for i := range dst {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: bad hex", ErrConfig)
		}
		dst[i] = hi<<4 | lo
	}
	return nil
}

// EncodeFoulSet canonically encodes the guilty agent ids ("1;3;4", "" for
// none) — the value the judicial service agrees on before ordering
// punishment.
func EncodeFoulSet(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ";")
}

// DecodeFoulSet parses EncodeFoulSet output.
func DecodeFoulSet(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%w: foul set entry %q", ErrConfig, p)
		}
		out = append(out, id)
	}
	return out, nil
}

// deriveAgentSource gives each (session seed, agent, round) its own
// deterministic randomness stream for commitments.
func deriveAgentSource(seed uint64, agent, round int) *prng.Source {
	return prng.Derive(seed, 0xA6E27, uint64(agent), uint64(round))
}
