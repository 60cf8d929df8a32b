package telemetry

// RaceEnabled is raceEnabled for the package's external tests.
const RaceEnabled = raceEnabled
