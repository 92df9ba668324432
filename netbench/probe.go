package main

import (
	"context"
	"fmt"

	"netplace/internal/cluster"
	"netplace/internal/core"
	"netplace/internal/service"
)

// probeCluster prices the cluster and persistence layers on the
// workload's own instances, reps times each, against hosts (a traced
// two-replica cluster) and fresh standalone servers:
//
//   - cluster.forward_ms: an instance GET sent to the replica that does
//     not own the instance (so its proxy forwards) minus the same GET
//     sent to the owner;
//   - service.replica_push_ms: an upload to the owning replica, which
//     pushes a snapshot to its successor, minus an upload to a
//     standalone in-memory server;
//   - with durable, service.persist_ms as the persistence cost of an
//     upload: a standalone server with a data directory minus the
//     in-memory one.
//
// It returns the share of the instances replica B owns: the share of
// ops entering at replica A that its proxy forwards.
func probeCluster(ctx context.Context, b *bench, hosts []*host, ins []*core.Instance, reps int, durable bool) (float64, error) {
	t := b.tracer
	mem, err := startServer(b, false)
	if err != nil {
		return 0, err
	}
	targets := map[string]*service.Client{"memory": clientFor(b, mem.url)}
	if durable {
		disk, err := startServer(b, true)
		if err != nil {
			return 0, err
		}
		targets["durable"] = clientFor(b, disk.url)
	}
	urls := []string{hosts[0].url, hosts[1].url}
	ring := cluster.NewRingOf(0, urls...)
	replica := map[string]*service.Client{urls[0]: clientFor(b, urls[0]), urls[1]: clientFor(b, urls[1])}
	ownedByB := 0
	for i, in := range ins {
		id := service.InstanceIDFor(in)
		owner, other := urls[0], urls[1]
		if ring.Owner(id) != owner {
			owner, other = other, owner
			ownedByB++
		}
		for r := 0; r < reps; r++ {
			root, start := t.begin("replay.probe", i, 0)
			var err error
			t.do("probe.upload_owner", i, root, func(int64) { _, err = replica[owner].Upload(ctx, "", in) })
			if err == nil {
				t.do("probe.get_forwarded", i, root, func(int64) { _, err = replica[other].Info(ctx, id) })
			}
			if err == nil {
				t.do("probe.get_owner", i, root, func(int64) { _, err = replica[owner].Info(ctx, id) })
			}
			if err == nil {
				err = replica[owner].Delete(ctx, id)
			}
			for name, c := range targets {
				if err == nil {
					t.do("probe.upload_"+name, i, root, func(int64) { _, err = c.Upload(ctx, "", in) })
				}
				if err == nil {
					err = c.Delete(ctx, id)
				}
			}
			t.end(root, start)
			if err != nil {
				return 0, fmt.Errorf("cluster probe: %w", err)
			}
		}
	}
	total := t.totals()
	b.set("cluster.forward_ms", median(total["probe.get_forwarded"])-median(total["probe.get_owner"]))
	b.set("service.replica_push_ms", median(total["probe.upload_owner"])-median(total["probe.upload_memory"]))
	if durable {
		b.set("service.persist_ms", median(total["probe.upload_durable"])-median(total["probe.upload_memory"]))
	}
	return float64(ownedByB) / float64(len(ins)), nil
}
