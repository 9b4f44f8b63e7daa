package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The round-trip tests accept any self-consistent layout. These pin the
// wire bytes themselves: the SHA-256 of every seed frame's encoding. A
// digest that moves means GMCK v1 or GMCD v1 changed on the wire — that
// needs a Version/DeltaVersion bump, not a new digest.

var goldenCheckpoints = []string{
	"8bed3fc5bb6ccc9196419dea76e84e2bc0df15d2cbdf4ac863996fdf4f4ce89d",
	"39ed94bfc31f6476b1e4fb70e327bee490599e3b5db182f00cd44f284e55a3c2",
	"9f2719a832028525d637630a2c536bcbc861961cfe93e429292bde7c01a3993f",
}

var goldenDeltas = []string{
	"ec755d1ebc5133a6289c9960b83816d6ed1596c8150aef19fa5fcff7333bcab7",
	"222342a7b5cbbe12baa3fd3244328d69225022771f7b919fc9ef6cb01e18b764",
	"fe9e809ad0ba57076b0dae97f7d4f5f611931b1d9ba624018c2987a28dd7398c",
}

func checkGolden(t *testing.T, kind string, frames [][]byte, want []string) {
	t.Helper()
	if len(frames) != len(want) {
		t.Fatalf("%d %s seeds, %d golden digests", len(frames), kind, len(want))
	}
	for i, b := range frames {
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[i] {
			t.Errorf("%s seed %d: sha256 %s, want %s", kind, i, got, want[i])
		}
	}
}

// TestCheckpointGolden: every seed checkpoint encodes to its pinned GMCK v1
// bytes.
func TestCheckpointGolden(t *testing.T) {
	var frames [][]byte
	for _, c := range seedCheckpoints() {
		frames = append(frames, c.Encode())
	}
	checkGolden(t, "checkpoint", frames, goldenCheckpoints)
}

// TestDeltaGolden: every seed delta encodes to its pinned GMCD v1 bytes.
func TestDeltaGolden(t *testing.T) {
	var frames [][]byte
	for _, d := range seedDeltas() {
		frames = append(frames, d.Encode())
	}
	checkGolden(t, "delta", frames, goldenDeltas)
}
