package trace

import (
	"bytes"
	"strings"
	"testing"
)

func buildTestSet() *Set {
	st := NewSet()
	a, _ := FromSlices("temp", []float64{0, 1, 2}, []float64{70, 71.5, 72})
	b, _ := FromSlices("fan", []float64{1, 2}, []float64{2000, 2100})
	st.Add(a)
	st.Add(b)
	return st
}

func TestCSVRoundTrip(t *testing.T) {
	st := buildTestSet()
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if names := got.Names(); len(names) != 2 || names[0] != "temp" || names[1] != "fan" {
		t.Fatalf("Names = %v", names)
	}
	temp := got.Get("temp")
	if temp.Len() != 3 {
		t.Fatalf("temp len = %d, want 3", temp.Len())
	}
	if temp.At(1).V != 71.5 {
		t.Errorf("temp[1] = %v", temp.At(1).V)
	}
	fan := got.Get("fan")
	// fan has no sample at t=0, but zero-order hold in WriteCSV fills
	// forward only from its first sample; before that the cell is empty,
	// so after round trip the fan series still has exactly 2 samples.
	if fan.Len() != 2 {
		t.Errorf("fan len = %d, want 2", fan.Len())
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := ReadCSV(strings.NewReader("x,y\n1,2\n")); err == nil {
		t.Error("csv without t column accepted")
	}
	if _, err := ReadCSV(strings.NewReader("t\n1\n")); err == nil {
		t.Error("csv without series columns accepted")
	}
}

func TestCSVBadCells(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("t,a\nxx,1\n")); err == nil {
		t.Error("bad time cell accepted")
	}
	if _, err := ReadCSV(strings.NewReader("t,a\n1,zz\n")); err == nil {
		t.Error("bad value cell accepted")
	}
}

func TestCSVEmptyCellsSkipped(t *testing.T) {
	in := "t,a,b\n0,1,\n1,,2\n"
	st, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st.Get("a").Len() != 1 || st.Get("b").Len() != 1 {
		t.Errorf("a len=%d b len=%d, want 1 and 1", st.Get("a").Len(), st.Get("b").Len())
	}
}

func TestPlotRendersAllSeries(t *testing.T) {
	st := buildTestSet()
	out := st.Plot(PlotOptions{Width: 40, Height: 8, Title: "test plot"})
	if out == "" {
		t.Fatal("empty plot")
	}
	if !strings.Contains(out, "test plot") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "temp") || !strings.Contains(out, "fan") {
		t.Error("missing legend entries")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("missing series marks")
	}
}

func TestPlotEmptySet(t *testing.T) {
	if out := NewSet().Plot(PlotOptions{}); out != "" {
		t.Errorf("empty set plot = %q", out)
	}
	st := NewSet()
	st.Add(NewSeries("empty"))
	if out := st.Plot(PlotOptions{}); out != "" {
		t.Errorf("set of empty series plot = %q", out)
	}
}

func TestPlotFixedYRange(t *testing.T) {
	st := buildTestSet()
	out := st.Plot(PlotOptions{Width: 30, Height: 6, YFixed: true, YMin: 0, YMax: 100})
	if !strings.Contains(out, "100.00") || !strings.Contains(out, "0.00") {
		t.Errorf("fixed range labels missing:\n%s", out)
	}
}
