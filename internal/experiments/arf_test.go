package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"adhocsim/internal/phy"
	"adhocsim/internal/runner"
	"adhocsim/internal/scenario"
)

// arfLink is the ARF ablation's link: 60 m is inside 5.5 Mbit/s range
// but outside 11 Mbit/s range, so the sender's rate keeps moving.
func arfLink(seed uint64) TwoNode {
	return TwoNode{Rate: phy.Rate11, Distance: 60, Transport: UDP,
		Duration: 2 * time.Second, Seed: seed, ARF: true}
}

// TestARFAblationBytes pins the ARF ablation's full result bytes. The
// digests were recorded when ARF was a live controller object handed to
// the sender's MAC, before it became a station setting; rate fallback
// held per MAC must reproduce them exactly.
func TestARFAblationBytes(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{0, "31bc75913424d3debc771be32ef8b165f025c93f177efc5e5eb42051d090a2e7"},
		{1, "633b401744e96235a62ff374e6441b7e15584011b8f649580b5eda54c73a4d10"},
		{2, "2f1e10ba6b965609de2c2c189d0f1dcc8e62a7d56e58d15f51d62bfa0fa7769e"},
		{42, "4c87fb47d1a6d8f17031367d0897cc8cbc8af191e8fdca3e77314e4dfd7fa2de"},
	} {
		b, err := json.Marshal(scenario.MustRun(arfLink(tc.seed).Spec()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("seed %d: result sha256 %s, want %s", tc.seed, got, tc.want)
		}
	}
	got := RunTwoNode(arfLink(42))
	if got.MeasuredMbps != 1.3312 || got.SentPackets != 701 || got.RcvdPackets != 650 ||
		got.Retries != 88 || got.Drops != 1 {
		t.Errorf("seed 42: %+v, want 1.3312 Mbit/s, 701 sent, 650 received, 88 retries, 1 drop", got)
	}
}

// TestReplicateARFIsPure proves replications are a pure function of
// (spec, seed) under rate fallback: replication i of a sweep equals the
// same seed run alone, so no replication inherits an earlier one's
// rate state.
func TestReplicateARFIsPure(t *testing.T) {
	cfg := arfLink(42)
	sum := ReplicateTwoNode(cfg, Rep{Replications: 3, Workers: 1})
	for i, got := range sum.Runs {
		alone := cfg
		alone.Seed = runner.SeedFor(cfg.Seed, i)
		if want := RunTwoNode(alone); got != want {
			t.Errorf("replication %d: %+v, alone at its seed: %+v", i, got, want)
		}
	}
}
