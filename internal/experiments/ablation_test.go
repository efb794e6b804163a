package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/models"
)

func cell(t *testing.T, tab interface{ String() string }, row, col int) float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(tab.String()), "\n")
	// lines: title, header, separator, rows...
	fields := strings.Fields(lines[3+row])
	v, err := strconv.ParseFloat(strings.TrimSuffix(fields[col], "%"), 64)
	if err != nil {
		t.Fatalf("cell(%d,%d) = %q: %v", row, col, fields[col], err)
	}
	return v
}

// TestAllreduceAlgoAblation pins every cell of the allreduce ablation:
// the simulator's virtual time is deterministic, so a cell that moves
// means a schedule changed (which messages go where, in what order, at
// what size). The 24-rank table is benchtab's, and its hierarchical
// column rings four node leaders.
func TestAllreduceAlgoAblation(t *testing.T) {
	for _, tc := range []struct {
		ranks int
		sizes []int
		want  [][]string // payload KiB, auto, recursive doubling, hierarchical, pipelined
	}{
		{12, []int{1024, 20011, 262144, 4194304}, [][]string{
			{"4", "0.023", "0.018", "0.019", "0.144"},
			{"78", "0.071", "0.080", "0.047", "0.153"},
			{"1024", "0.526", "0.877", "0.416", "0.592"},
			{"16384", "8.049", "13.815", "6.407", "8.115"},
		}},
		{24, []int{1024, 16384, 262144, 4194304}, [][]string{
			{"4", "0.033", "0.023", "0.035", "0.300"},
			{"64", "0.118", "0.089", "0.067", "0.307"},
			{"1024", "0.573", "1.154", "0.569", "0.711"},
			{"16384", "8.438", "18.196", "8.611", "8.576"},
		}},
	} {
		tab, err := AllreduceAlgoTable(tc.ranks, tc.sizes)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(tab.Rows, tc.want, slices.Equal[[]string]) {
			t.Errorf("%d ranks: rows\n%v\nwant\n%v", tc.ranks, tab.Rows, tc.want)
		}
	}
}

func TestFusionAblation(t *testing.T) {
	tab, err := FusionTable(models.NasNetMobile, 12, []int64{1 << 20, 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	groupsSmall := cell(t, tab, 0, 1)
	groupsBig := cell(t, tab, 1, 1)
	if !(groupsSmall > groupsBig) {
		t.Fatalf("smaller threshold must produce more fusion groups: %v vs %v", groupsSmall, groupsBig)
	}
	msSmall := cell(t, tab, 0, 2)
	msBig := cell(t, tab, 1, 2)
	// NasNet has 1126 tiny tensors: heavy fusion (64 MB) should not be
	// slower than 1 MB fusion.
	if msBig > msSmall*1.05 {
		t.Fatalf("large fusion threshold should not be slower: %v vs %v ms", msBig, msSmall)
	}
}

func TestCacheAblation(t *testing.T) {
	tab, err := CacheTable(models.NasNetMobile, 12)
	if err != nil {
		t.Fatal(err)
	}
	onStep2 := cell(t, tab, 0, 2)
	offStep2 := cell(t, tab, 1, 2)
	// With the cache, the second step skips negotiation and must be
	// cheaper than without it.
	if !(onStep2 < offStep2) {
		t.Fatalf("cached step2 (%v ms) should beat uncached (%v ms)", onStep2, offStep2)
	}
}

func TestDetectionTimeoutAblation(t *testing.T) {
	tab, err := DetectionTimeoutTable([]float64{0.5, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	shortDetect := cell(t, tab, 0, 1)
	longDetect := cell(t, tab, 1, 1)
	if !(shortDetect < longDetect) {
		t.Fatalf("detect should track the timeout: %v vs %v", shortDetect, longDetect)
	}
	shortTotal := cell(t, tab, 0, 2)
	longTotal := cell(t, tab, 1, 2)
	if !(longTotal-shortTotal > 3.0) {
		t.Fatalf("timeout delta should dominate recovery delta: %v vs %v", shortTotal, longTotal)
	}
}

func TestGoodputUnderFailures(t *testing.T) {
	tab, err := GoodputTable(models.NasNetMobile, 12, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// ULFM efficiency must exceed the baseline's at every failure count.
	for r := range tab.Rows {
		ehEff := cell(t, tab, r, 2)
		ulEff := cell(t, tab, r, 4)
		if !(ulEff > ehEff) {
			t.Fatalf("row %d: ULFM efficiency %v%% should beat EH %v%%", r, ulEff, ehEff)
		}
	}
	// More failures, lower efficiency for the baseline.
	if !(cell(t, tab, 1, 2) < cell(t, tab, 0, 2)) {
		t.Fatal("EH efficiency should degrade with failure count")
	}
}
