package dataset

import (
	"fmt"

	"digfl/internal/tensor"
)

// Mislabel returns a copy of d in which a fraction frac of the labels have
// been replaced by a uniformly random *different* class — the paper's
// mislabeled low-quality participant (Sec. V-C1 uses 30% and 50%).
func Mislabel(d Dataset, frac float64, rng *tensor.RNG) Dataset {
	if d.Classes < 2 {
		panic("dataset: Mislabel needs a classification dataset")
	}
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("dataset: invalid mislabel fraction %v", frac))
	}
	out := d.Clone()
	n := int(float64(d.Len()) * frac)
	perm := rng.Perm(d.Len())
	for _, i := range perm[:n] {
		orig := int(out.Y[i])
		wrong := rng.Intn(d.Classes - 1)
		if wrong >= orig {
			wrong++
		}
		out.Y[i] = float64(wrong)
	}
	out.Name = d.Name + "/mislabeled"
	return out
}

// FlipLabels returns a copy of d in which a fraction frac of the labels are
// shifted deterministically to (y+1) mod classes — a *targeted* poisoning
// pattern. Unlike uniform mislabeling, whose gradients partially average
// out, flipped labels push the model coherently toward wrong classes; this
// is the adversarial-participant setting the paper's introduction motivates
// ("avoid adversarial sample attacks").
func FlipLabels(d Dataset, frac float64, rng *tensor.RNG) Dataset {
	if d.Classes < 2 {
		panic("dataset: FlipLabels needs a classification dataset")
	}
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("dataset: invalid flip fraction %v", frac))
	}
	out := d.Clone()
	n := int(float64(d.Len()) * frac)
	perm := rng.Perm(d.Len())
	for _, i := range perm[:n] {
		out.Y[i] = float64((int(out.Y[i]) + 1) % d.Classes)
	}
	out.Name = d.Name + "/flipped"
	return out
}

// NoisyTargets returns a copy of a regression dataset with heavy Gaussian
// noise added to a fraction of the targets — the regression analogue of a
// mislabeled participant.
func NoisyTargets(d Dataset, frac, sigma float64, rng *tensor.RNG) Dataset {
	if d.Classes != 0 {
		panic("dataset: NoisyTargets needs a regression dataset")
	}
	out := d.Clone()
	n := int(float64(d.Len()) * frac)
	perm := rng.Perm(d.Len())
	for _, i := range perm[:n] {
		out.Y[i] += float64(sigma * rng.NormFloat64())
	}
	out.Name = d.Name + "/noisy"
	return out
}

// ScrambleFeatures returns a copy of d where the listed feature columns are
// independently permuted across rows, destroying their relationship with the
// target while preserving marginals — used to plant low-contribution VFL
// participants.
func ScrambleFeatures(d Dataset, cols []int, rng *tensor.RNG) Dataset {
	out := d.Clone()
	for _, j := range cols {
		if j < 0 || j >= d.Dim() {
			panic(fmt.Sprintf("dataset: ScrambleFeatures column %d out of range", j))
		}
		perm := rng.Perm(d.Len())
		for i, pi := range perm {
			out.X.Set(i, j, d.X.At(pi, j))
		}
	}
	out.Name = d.Name + "/scrambled"
	return out
}
