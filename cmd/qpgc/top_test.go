package main

import (
	"strings"
	"testing"
)

// TestRenderTopHubRate pins the sched line's hub-cache percentage to the
// batch-path lane count: batches of one wave or less bypass the scheduler
// yet still hit the hub cache, so dividing by scheduler lanes can exceed
// 100%.
func TestRenderTopHubRate(t *testing.T) {
	sample := metricSample{
		"qpgc_sched_waves_total":       10,
		"qpgc_sched_lanes_total":       100,
		"qpgc_sched_batch_lanes_total": 400,
		"qpgc_sched_hub_lanes_total":   200,
		"qpgc_sched_queue_depth":       3,
	}
	var b strings.Builder
	renderTop(&b, sample, nil, 0, 7, "test")
	var line string
	for _, l := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(l, "sched ") {
			line = l
		}
	}
	want := "sched   waves 10  lanes 100  clustered 0  hub-cached 200 (50%)  queue 3"
	if line != want {
		t.Fatalf("sched line:\n got %q\nwant %q", line, want)
	}
}
