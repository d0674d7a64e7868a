// Package cluster hosts live 2LDAG deployments: the lifecycle of one
// device, written once for both live drivers, and the membership plane
// of a device that runs alone in its process.
//
//   - Device (Sealer.NewDevice) is one IoT device holding S_i, H_i and
//     A_i: a node runtime on a fabric endpoint, with, on a durable
//     deployment, the backend its state recovers from, journals to and
//     checkpoints into. It closes node first, then backend.
//   - Sealer is the durable lifecycle (the data dir's log, each
//     device's files in dir/node-<id>, one start-up and close) and the
//     seal stage: a batch sealed in rounds, one commit window per round,
//     blocks published only once their window's fsync returned, the log
//     compacted between rounds once one device has DefaultCompactEvery
//     block records in it. AckTracker.Announce is the stage after it:
//     the batch's digests announced and their acknowledgements awaited.
//   - PlanJoin and PlaceJoiner are the one joiner-placement rule.
//
// The facade's in-process Cluster (package twoldag) runs N Devices on
// one fabric, on one shared log under its data dir, and seals every
// SubmitBatch through one Sealer; membership there is the map of
// running devices. Host runs one Device per OS process in a cross-host
// cluster: TCP, a directory kept by Hello/PeerList/Leave frames, joiners
// re-anchored exactly as in process, each Seal a Sealer round of one on
// the log of its data dir, and the slot/seal/flush/audit verbs a
// distributed harness drives over its control protocol. Both lay out a
// data dir and start up the same way, through Sealer: open, recover
// every device, compact.
package cluster
