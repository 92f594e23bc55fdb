// Package repro is a reproduction of "ETI Resource Distributor:
// Guaranteed Resource Allocation and Scheduling in Multimedia
// Systems" (Miche Baker-Harvey, OSDI '99).
//
// The public surface lives in the internal packages, assembled by
// internal/core. See README.md for the architecture overview,
// DESIGN.md for the system inventory and experiment index, and
// EXPERIMENTS.md for paper-versus-measured results. cmd/rdbench stages
// every table and figure of the paper's evaluation and prints them with
// paper values alongside; go test ./cmd/rdbench pins that output byte
// for byte.
package repro
