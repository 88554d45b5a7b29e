package dve

// engineLabel is the fixed value of Result.Engine: every run executes on
// one event queue shared by both sockets.
const engineLabel = "single-queue"

// EngineMode once selected between a per-socket partitioned engine and the
// single event queue. Only the single queue remains, so every mode runs it.
//
// Deprecated: kept for callers that still set RunConfig.Engine.
type EngineMode int

// EngineAuto is the zero EngineMode.
//
// Deprecated: see EngineMode.
const EngineAuto EngineMode = 0

// EngineSerial is an old name of EngineAuto.
//
// Deprecated: see EngineMode.
const EngineSerial = EngineAuto
