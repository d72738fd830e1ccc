package stm

import "github.com/firestarter-go/firestarter/internal/obsv"

// Metrics is the undo log's accounting schema. Publishing happens at
// collection time — the store/commit hot paths never touch the registry,
// so enabling metrics changes no charged cycle.
var Metrics = obsv.Table[Stats]{
	{Name: "stm.begins", Get: func(s *Stats) int64 { return s.Begins }},
	{Name: "stm.commits", Get: func(s *Stats) int64 { return s.Commits }},
	{Name: "stm.rollbacks", Get: func(s *Stats) int64 { return s.Rollbacks }},
	{Name: "stm.total_stores", Get: func(s *Stats) int64 { return s.TotalStores }},
	{Name: "stm.peak_log_len", Gauge: true, Get: func(s *Stats) int64 { return int64(s.PeakLogLen) }},
}
