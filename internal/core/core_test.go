package core

import (
	"encoding/hex"
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
)

func TestEncodeDecodeProfile(t *testing.T) {
	cases := []game.Profile{{0}, {1, 0, 2}, {-1, 3}}
	for _, p := range cases {
		got, err := DecodeProfile(EncodeProfile(p), len(p))
		if err != nil {
			t.Fatalf("decode(%v): %v", p, err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip %v → %v", p, got)
		}
	}
	if _, err := DecodeProfile("", 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := DecodeProfile("1,2", 3); !errors.Is(err, ErrConfig) {
		t.Fatalf("arity: %v", err)
	}
	if _, err := DecodeProfile("1,x", 2); !errors.Is(err, ErrConfig) {
		t.Fatalf("garbage: %v", err)
	}
}

func TestEncodeDecodeDigest(t *testing.T) {
	src := prng.New(1)
	d, _ := commit.Commit(src, []byte("v"))
	got, err := DecodeDigest(EncodeDigest(d))
	if err != nil || got != d {
		t.Fatalf("digest round trip failed: %v", err)
	}
	if _, err := DecodeDigest("zz"); !errors.Is(err, ErrConfig) {
		t.Fatalf("short digest: %v", err)
	}
	bad := EncodeDigest(d)
	bad = "g" + bad[1:]
	if _, err := DecodeDigest(bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad hex: %v", err)
	}
}

func TestEncodeDecodeOpening(t *testing.T) {
	src := prng.New(2)
	_, op := commit.Commit(src, []byte("payload"))
	got, err := DecodeOpening(EncodeOpening(op))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "payload" || got.Nonce != op.Nonce {
		t.Fatal("opening round trip mismatch")
	}
	for _, bad := range []string{"", "a|b|c", "xx|yy", "ab|"} {
		if _, err := DecodeOpening(bad); err == nil {
			t.Fatalf("malformed opening %q accepted", bad)
		}
	}
}

func TestEncodeDecodeFoulSet(t *testing.T) {
	for _, ids := range [][]int{nil, {1}, {0, 2, 5}} {
		got, err := DecodeFoulSet(EncodeFoulSet(ids))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) {
			t.Fatalf("round trip %v → %v", ids, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("round trip %v → %v", ids, got)
			}
		}
	}
	if _, err := DecodeFoulSet("1;x"); !errors.Is(err, ErrConfig) {
		t.Fatalf("garbage: %v", err)
	}
}

func TestQuickProfileCodecTotal(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		p := make(game.Profile, len(raw))
		for i, r := range raw {
			p[i] = int(r)
		}
		got, err := DecodeProfile(EncodeProfile(p), len(p))
		return err == nil && got.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodersMatchReference pins the append-style encoders to the plain
// formulations they replace: agreed values must stay byte-identical.
func TestEncodersMatchReference(t *testing.T) {
	profile := func(raw []int16) bool {
		p := make(game.Profile, len(raw))
		parts := make([]string, len(raw))
		for i, r := range raw {
			p[i] = int(r)
			parts[i] = strconv.Itoa(int(r))
		}
		return EncodeProfile(p) == strings.Join(parts, ",")
	}
	opening := func(value []byte, nonce [commit.NonceSize]byte) bool {
		op := commit.Opening{Value: value, Nonce: nonce}
		return EncodeOpening(op) == hex.EncodeToString(value)+"|"+hex.EncodeToString(nonce[:])
	}
	digest := func(d commit.Digest) bool { return EncodeDigest(d) == hex.EncodeToString(d[:]) }
	for _, f := range []any{profile, opening, digest} {
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAgentStreamStateMatchesDerive pins the allocation-free commitment
// stream derivation to the original deriveAgentSource stream, seed for
// seed — the property the seeded-equivalence guarantees rest on.
func TestAgentStreamStateMatchesDerive(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 40} {
		for agent := 0; agent < 3; agent++ {
			for round := 0; round < 5; round++ {
				var src prng.Source
				src.Seed(agentStreamState(seed, agent, round))
				want := deriveAgentSource(seed, agent, round)
				for k := 0; k < 4; k++ {
					if got, exp := src.Uint64(), want.Uint64(); got != exp {
						t.Fatalf("seed=%d agent=%d round=%d draw %d: %#x != %#x",
							seed, agent, round, k, got, exp)
					}
				}
			}
		}
	}
}
