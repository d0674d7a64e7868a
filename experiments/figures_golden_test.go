package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// quickFiguresWant is the SHA-256 of what `experiments -quick all`
// prints: Fig7, Fig8, Fig9 and Ablations at QuickScale, rendered in
// that order. It does not depend on GOMAXPROCS.
const quickFiguresWant = "07de425e1f10e2736a20199134bb95d5a7d40762c8d8fe36c45332a9dc8d4f91"

// TestQuickFiguresGolden pins every number the quick figure set
// prints, so a change under the simulator that moves a figure fails
// here instead of in a hand diff of the command's output.
func TestQuickFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole quick figure set")
	}
	h := sha256.New()
	for _, run := range []func(Scale) ([]*FigResult, error){Fig7, Fig8, Fig9, Ablations} {
		figs, err := run(QuickScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, fig := range figs {
			if err := fig.Render(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickFiguresWant {
		t.Fatalf("quick figures hash %s, want %s (the output of `experiments -quick all`)", got, quickFiguresWant)
	}
}
