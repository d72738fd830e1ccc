package htm

import "github.com/firestarter-go/firestarter/internal/obsv"

// Metrics is the hardware model's accounting schema. Publishing happens at
// collection time — the transaction hot paths never touch the registry,
// so enabling metrics changes no charged cycle.
var Metrics = obsv.Table[Stats]{
	{Name: "htm.begins", Get: func(s *Stats) int64 { return s.Begins }},
	{Name: "htm.commits", Get: func(s *Stats) int64 { return s.Commits }},
	{Name: "htm.aborts", Get: func(s *Stats) int64 { return s.Aborts }},
	{Name: "htm.aborts_capacity", Get: func(s *Stats) int64 { return s.ByCapac }},
	{Name: "htm.aborts_interrupt", Get: func(s *Stats) int64 { return s.ByIntr }},
	{Name: "htm.aborts_conflict", Get: func(s *Stats) int64 { return s.ByConfl }},
	{Name: "htm.aborts_explicit", Get: func(s *Stats) int64 { return s.ByExplcit }},
	{Name: "htm.peak_write_lines", Gauge: true, Get: func(s *Stats) int64 { return int64(s.PeakWriteLines) }},
}
