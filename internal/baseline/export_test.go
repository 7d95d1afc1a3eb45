package baseline

import "ricsa/internal/pipeline"

// FrameDelay predicts the comparator's per-dataset delay on a measured
// graph: the Eq. 2 cost of the manual placement under the overhead-scaled
// pipeline, plus the fixed per-frame setup.
func (c Config) FrameDelay(g *pipeline.Graph, p *pipeline.Pipeline, dataServer string, placement []string) (float64, error) {
	scaled := c.Apply(p)
	d, err := pipeline.EvaluatePlacement(g, scaled, dataServer, placement)
	if err != nil {
		return 0, err
	}
	return d + c.PerFrameSetup, nil
}
