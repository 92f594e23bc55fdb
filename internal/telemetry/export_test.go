package telemetry

// PerfettoCanonical exposes ValidatePerfetto's fast path to the
// external tests, which export a live fleet cluster (internal/sweep
// imports this package).
var PerfettoCanonical = perfettoCanonical
