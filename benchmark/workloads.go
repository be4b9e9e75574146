package main

import "strings"

// workloads is the suite. roundsPerSec was sized on the 2-core reference
// host so that -seconds 1 is about one second of timed phase; README.md
// says why each workload exists and which layer dominates it.
var workloads = []*workload{
	{name: "soar-learn", roundsPerSec: 3.1, setup: setupSoarLearn},
	{name: "match-replay", roundsPerSec: 4.3, setup: setupMatchReplay},
	{name: "serve-ingest-b1", roundsPerSec: 5.6, setup: setupServeIngestB1},
	{name: "serve-durable-b8", roundsPerSec: 4.5, setup: setupServeDurableB8},
	{name: "serve-failover", roundsPerSec: 28, setup: setupServeFailover},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
