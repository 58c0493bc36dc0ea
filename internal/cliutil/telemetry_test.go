package cliutil

import (
	"strings"
	"testing"

	"pimcache/internal/mem"
)

func TestTelemetryValidate(t *testing.T) {
	for _, ok := range []TelemetrySpec{
		{},
		{Events: "e.json"},
		{Intervals: 1000, CSV: "iv.csv"},
		{HotSpots: 10},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: Validate() = %v, want nil", ok, err)
		}
	}
	for _, c := range []struct {
		spec TelemetrySpec
		flag string
	}{
		{TelemetrySpec{HotSpots: -1}, "-hotspots"},
		{TelemetrySpec{CSV: "iv.csv"}, "-csv"},
	} {
		if err := c.spec.Validate(); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%+v: Validate() = %v, want an error naming %s", c.spec, err, c.flag)
		}
	}
}

// TestTelemetryOffAttachesNothing pins the zero-overhead contract: with
// no telemetry flag the run gets a nil sink and the report prints
// nothing.
func TestTelemetryOffAttachesNothing(t *testing.T) {
	var spec TelemetrySpec
	if spec.On() {
		t.Fatal("zero TelemetrySpec reports On")
	}
	tel, err := spec.Start(8, 4, mem.DefaultLayout().Bounds().AreaOf)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Sink != nil {
		t.Errorf("Sink = %v, want nil", tel.Sink)
	}
	var out strings.Builder
	if err := tel.Report(&out); err != nil || out.Len() != 0 {
		t.Errorf("Report() = %v, printed %q; want nothing", err, out.String())
	}
}
