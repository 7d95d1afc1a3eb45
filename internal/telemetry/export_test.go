package telemetry

// TierSeriesName returns the series suffix for a tier index.
func TierSeriesName(t int) string {
	if t < 0 || t >= NumTierSeries {
		return "unknown"
	}
	return tierSeriesNames[t]
}
