package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestConvergenceTable(t *testing.T) {
	tab, err := ConvergenceTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var baseLoss float64
	for _, row := range tab.Rows {
		loss, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("loss cell %q: %v", row[1], err)
		}
		if row[0] == "failure-free" {
			baseLoss = loss
		}
		if row[3] != "true" {
			t.Fatalf("run %q replicas inconsistent", row[0])
		}
		// Every run must end well below the initial cross-entropy
		// (ln(4) ≈ 1.386 for 4 classes).
		if loss > 0.7 {
			t.Fatalf("run %q did not converge: final loss %v", row[0], loss)
		}
	}
	// Recovery styles should land in the same neighborhood as failure-free.
	for _, row := range tab.Rows {
		loss, _ := strconv.ParseFloat(row[1], 64)
		if loss > baseLoss*2.5+0.1 {
			t.Fatalf("run %q final loss %v too far from baseline %v", row[0], loss, baseLoss)
		}
	}
	// Worker counts: down=7, replace=8, EH node-drop=6.
	want := map[string]string{"failure-free": "8", "ULFM-down": "7", "ULFM-replace": "8", "EH-down(node)": "6"}
	for _, row := range tab.Rows {
		if row[2] != want[row[0]] {
			t.Fatalf("run %q workers = %s, want %s", row[0], row[2], want[row[0]])
		}
	}
}

func TestCompressionTable(t *testing.T) {
	tab, err := CompressionTable(6, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	cells := map[string][]string{}
	for _, row := range tab.Rows {
		cells[row[0]] = row
		// Uniformity is non-negotiable under every codec.
		if row[4] != "true" {
			t.Fatalf("codec %s: replicas not bit-identical", row[0])
		}
	}
	parse := func(codec string, col int) float64 {
		v, err := strconv.ParseFloat(cells[codec][col], 64)
		if err != nil {
			t.Fatalf("%s col %d = %q: %v", codec, col, cells[codec][col], err)
		}
		return v
	}
	// Raw is lossless on the wire — only float32 accumulation separates
	// it from the float64 reference. fp16 trades half the bytes for
	// bounded error.
	if e := parse("raw", 2); e > 1e-5 {
		t.Fatalf("raw max error = %v, want float32-accumulation noise only", e)
	}
	if !(parse("raw", 2) < parse("fp16", 2)) {
		t.Fatalf("expected raw err < fp16 err:\n%s", tab)
	}
	if b := parse("raw", 1); b != 4 {
		t.Fatalf("raw wire bytes/elem = %v", b)
	}
	if b := parse("fp16", 1); b != 2 {
		t.Fatalf("fp16 wire bytes/elem = %v", b)
	}
	// fp16's relative RMS error should sit near its 2^-11 grid — catch
	// order-of-magnitude regressions, not exact values.
	if rms := parse("fp16", 3); rms > 1e-2 {
		t.Fatalf("fp16 rms error %v implausibly large:\n%s", rms, tab)
	}
}

func TestPFSTable(t *testing.T) {
	tab := PFSTable()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "PFS") {
		t.Fatalf("table malformed:\n%s", out)
	}
	// PFS cost at 192 workers must dwarf the memory cost.
	last := tab.Rows[3]
	mem, _ := strconv.ParseFloat(last[1], 64)
	pfs, _ := strconv.ParseFloat(last[2], 64)
	if !(pfs > mem*10) {
		t.Fatalf("PFS at scale should dwarf memory copies: %v vs %v", mem, pfs)
	}
}
