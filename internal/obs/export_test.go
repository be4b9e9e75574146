package obs

// CompleteTS and InstantTS let the external golden test emit events at
// fixed timestamps.
func (t *Tracer) CompleteTS(pid, tid int, name, cat string, tsUS, durUS float64, args map[string]any) {
	t.completeTS(pid, tid, name, cat, tsUS, durUS, args)
}

func (t *Tracer) InstantTS(pid, tid int, name, cat string, tsUS float64, args map[string]any) {
	t.instantTS(pid, tid, name, cat, tsUS, args)
}
