package experiments

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"adhocsim/internal/golden"
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
// digests (golden arf/<seed>) were recorded when ARF was a live
// controller object handed to the sender's MAC, before it became a
// station setting; rate fallback held per MAC must reproduce them
// exactly.
func TestARFAblationBytes(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 42} {
		b, err := json.Marshal(scenario.MustRun(arfLink(seed).Spec()))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, fmt.Sprintf("arf/%d", seed), b)
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
