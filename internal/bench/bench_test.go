package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"herosign/internal/gpu/device"
)

// goldenPath is the committed herosign-bench -json document (make bench).
const goldenPath = "../../BENCH_modeled.json"

func fastSuite() *Suite {
	s := NewSuite(device.RTX4090)
	s.Batch = 64
	s.Sample = 1
	return s
}

// sweep is one regeneration of every experiment at the golden document's
// device, batch and sample, shared by the tests that read it.
var sweep struct {
	once   sync.Once
	err    error
	golden *Report
	tables map[string]*Table
	errs   map[string]error
}

func regenerate(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short")
	}
	sweep.once.Do(func() {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			sweep.err = err
			return
		}
		var golden Report
		if err := json.Unmarshal(raw, &golden); err != nil {
			sweep.err = err
			return
		}
		dev, err := device.ByName(golden.Device)
		if err != nil {
			sweep.err = err
			return
		}
		s := NewSuite(dev)
		s.Batch, s.Sample = golden.Batch, golden.Sample
		sweep.golden = &golden
		sweep.tables = map[string]*Table{}
		sweep.errs = map[string]error{}
		for _, e := range Experiments() {
			sweep.tables[e.ID], sweep.errs[e.ID] = e.Run(s)
		}
	})
	if sweep.err != nil {
		t.Fatalf("%s: %v", goldenPath, sweep.err)
	}
}

// TestEveryExperimentRuns checks that each generator runs and returns a
// structurally valid table.
func TestEveryExperimentRuns(t *testing.T) {
	regenerate(t)
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := sweep.tables[e.ID], sweep.errs[e.ID]
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("empty table")
			}
			for i, row := range tab.Rows {
				if len(row) > len(tab.Header) {
					t.Errorf("row %d wider than header", i)
				}
			}
		})
	}
}

// TestModeledTablesRepeatExactly pins every modeled table: the model is
// deterministic and independent of the host's width, so each header and
// cell must equal BENCH_modeled.json. After an intended model change,
// regenerate the file with make bench and review its diff.
func TestModeledTablesRepeatExactly(t *testing.T) {
	regenerate(t)
	want := map[string]*Table{}
	for _, tab := range sweep.golden.Experiments {
		want[tab.ID] = tab
	}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			w := want[e.ID]
			if w == nil {
				t.Fatalf("%s holds no %s table; regenerate it with make bench", goldenPath, e.ID)
			}
			delete(want, e.ID)
			if err := sweep.errs[e.ID]; err != nil {
				t.Fatal(err)
			}
			for _, d := range diffTables(sweep.tables[e.ID], w) {
				t.Error(d)
			}
		})
	}
	for id := range want {
		t.Errorf("%s holds a %s table that no experiment generates", goldenPath, id)
	}
}

// diffTables lists every difference between a regenerated table and its
// golden copy, naming the row and column of each differing cell.
func diffTables(got, want *Table) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf("%s: "+format, append([]any{want.ID}, args...)...))
	}
	if got.Title != want.Title {
		add("title: got %q, want %q", got.Title, want.Title)
	}
	if !slices.Equal(got.Header, want.Header) {
		add("header: got %q, want %q", got.Header, want.Header)
	}
	if !slices.Equal(got.Notes, want.Notes) {
		add("notes: got %q, want %q", got.Notes, want.Notes)
	}
	if len(got.Rows) != len(want.Rows) {
		add("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range min(len(got.Rows), len(want.Rows)) {
		g, w := got.Rows[i], want.Rows[i]
		if len(g) != len(w) {
			add("row %d: %d cells, want %d", i, len(g), len(w))
		}
		for j := range min(len(g), len(w)) {
			if g[j] != w[j] {
				col := fmt.Sprint(j)
				if j < len(want.Header) {
					col = want.Header[j]
				}
				add("row %d (%s) column %q: got %q, want %q", i, w[0], col, g[j], w[j])
			}
		}
	}
	return diffs
}

// TestRunByIDUnknown covers the error path.
func TestRunByIDUnknown(t *testing.T) {
	if _, err := fastSuite().RunByID("table99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestRender checks the text renderer's alignment and note emission.
func TestRender(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "a    bbbb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestTable1Static checks the static parameter table without running the
// simulator.
func TestTable1Static(t *testing.T) {
	tab, err := fastSuite().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][7] != "17088" {
		t.Errorf("128f sig bytes cell = %q", tab.Rows[0][7])
	}
}

// TestTable4AgainstPaper checks the tuning table contains the exact
// published utilizations.
func TestTable4AgainstPaper(t *testing.T) {
	tab, err := fastSuite().Table4()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1] != "0.6875" || tab.Rows[0][3] != "3" {
		t.Errorf("128f tuning row = %v", tab.Rows[0])
	}
	if tab.Rows[1][1] != "0.7500" || tab.Rows[1][3] != "2" {
		t.Errorf("192f tuning row = %v", tab.Rows[1])
	}
	if !strings.HasPrefix(tab.Rows[2][4], "relax") {
		t.Errorf("256f should report relax mode, got %v", tab.Rows[2])
	}
}

// TestTable5MatchesPaperSelection asserts the reproduced Table V equals the
// published selection on RTX 4090.
func TestTable5MatchesPaperSelection(t *testing.T) {
	tab, err := fastSuite().Table5()
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{
		{"ok", "x", "x"},
		{"ok", "x", "x"},
		{"ok", "ok", "ok"},
	}
	for i, w := range want {
		for j := 0; j < 3; j++ {
			if tab.Rows[i][1+j] != w[j] {
				t.Errorf("row %d kernel %d: got %q want %q", i, j, tab.Rows[i][1+j], w[j])
			}
		}
	}
}
