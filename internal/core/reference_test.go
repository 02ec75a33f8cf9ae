package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hpcap/internal/core"
	"hpcap/internal/metrics"
	"hpcap/internal/ml"
	"hpcap/internal/server"
)

// learnerTranscript replays the seeded decision stream — random
// observations with pathological values, dimension mismatches, feedback
// and history resets — through one session over a monitor freshly
// trained with learner, and writes every outcome, error text included.
// The monitor is trained here rather than shared, since Feedback moves
// its tables.
func learnerTranscript(t *testing.T, learner ml.Learner) string {
	t.Helper()
	sets, names := syntheticSets(60, 11)
	m, err := core.Train(metrics.LevelHPC, names, sets, core.Config{
		Learner: learner,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rng := rand.New(rand.NewSource(99))
	sess := m.NewSession()
	var p core.Prediction
	for step := 0; step < 400; step++ {
		dim := m.InputDim()
		if rng.Intn(20) == 0 {
			dim++
		}
		// Odd steps decide into the reused Prediction, even steps through
		// the allocating convenience: both are one kernel.
		obs := randomObs(rng, dim)
		if step%2 == 1 {
			err = sess.PredictInto(obs, &p)
		} else {
			p, err = sess.Predict(obs)
		}
		fmt.Fprintf(&b, "%s %d ", learner.Name, step)
		if err != nil {
			fmt.Fprintf(&b, "err=%q\n", err)
			continue
		}
		fmt.Fprintf(&b, "over=%t bott=%s gpv=%v", p.Overload, p.Bottleneck, p.GPV)
		switch rng.Intn(6) {
		case 0:
			over := rng.Intn(2) == 1
			bott := server.TierID(rng.Intn(int(server.NumTiers)))
			sess.Feedback(over, bott)
			fmt.Fprintf(&b, " feedback=%t/%s", over, bott)
		case 1:
			sess.ResetHistory()
			b.WriteString(" reset")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sameLines fails on the first line where got departs from want.
func sameLines(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			g := "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("line %d diverged:\n got  %s\n want %s", i+1, g, wl[i])
		}
	}
	t.Fatalf("transcript has %d lines, golden %d", len(gl), len(wl))
}

// TestDecideMatchesReference holds the decision plane to
// testdata/decide_reference.golden: the transcript of the stream through
// the interpreted session the flat scoring tables replaced, one block per
// learner and an untrained monitor's error last, frozen before the
// replacement and never regenerated.
func TestDecideMatchesReference(t *testing.T) {
	raw, err := os.ReadFile("testdata/decide_reference.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*strings.Builder)
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if want[name] == nil {
			want[name] = &strings.Builder{}
		}
		want[name].WriteString(line)
	}
	for _, learner := range learners {
		t.Run(learner.Name, func(t *testing.T) {
			w := want[learner.Name]
			if w == nil {
				t.Fatalf("golden has no %s block", learner.Name)
			}
			sameLines(t, learnerTranscript(t, learner), w.String())
		})
	}
	_, err = (&core.Monitor{}).NewSession().Predict(core.Observation{})
	if got := fmt.Sprintf("untrained err=%q\n", err); want["untrained"] == nil || got != want["untrained"].String() {
		t.Fatalf("untrained monitor: %s", got)
	}
}
