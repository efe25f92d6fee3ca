package smt

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestStatFieldsCoverStats guards the one list of Stats fields: every
// numeric field appears in statFields exactly once, under a counter name
// no other field uses, and a Stats whose fields all differ survives
// Record → StatsOf and Add unchanged.
func TestStatFieldsCoverStats(t *testing.T) {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s has kind %s; statFields carries int64 fields only",
				sv.Type().Field(i).Name, sv.Field(i).Kind())
		}
		sv.Field(i).SetInt(int64(1000 + i))
	}
	seen := make(map[uintptr]string)
	names := make(map[string]bool)
	for _, f := range statFields {
		if names[f.name] {
			t.Errorf("counter %q names two fields", f.name)
		}
		names[f.name] = true
		addr := uintptr(reflect.ValueOf(f.field(&s)).Pointer())
		if prev, ok := seen[addr]; ok {
			t.Errorf("counters %q and %q read the same field", prev, f.name)
		}
		seen[addr] = f.name
	}
	for i := 0; i < sv.NumField(); i++ {
		if _, ok := seen[sv.Field(i).Addr().Pointer()]; !ok {
			t.Errorf("Stats.%s has no entry in statFields", sv.Type().Field(i).Name)
		}
	}

	m := telemetry.NewMetrics()
	s.Record(m)
	if got := StatsOf(m); got != s {
		t.Errorf("StatsOf(Record(s)) = %+v, want %+v", got, s)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	s.Record(m)
	if want := StatsOf(m); sum != want {
		t.Errorf("Add twice = %+v, recording twice = %+v", sum, want)
	}
	if StatsOf(nil) != (Stats{}) {
		t.Error("StatsOf(nil) is not zero")
	}
}
