"""What the residual extractor sees in real versus upsampled images.

Nearest-neighbor 2x upsampling replicates each source pixel into a 2x2
block. Subtracting the block anchor from every pixel therefore yields
exactly zero on such images, while any content that varies inside the
block survives. The detector never looks at raw pixels, only at this
residual.
"""

import numpy as np

from localfocus import NprConfig, Tensor, gen_fake, gen_real, npr_extract
from localfocus.npr import resample_2x


def mean_residual(image):
    return float(npr_extract(Tensor(image), NprConfig()).data.mean())


def main():
    rng = np.random.default_rng(0)

    print("A hand-sized example first. The 4x4 channel below is")
    print("block-constant, as if upsampled from 2x2:")
    block = np.repeat(np.repeat(np.array([[1.0, 2.0], [3.0, 4.0]]), 2, 0), 2, 1)
    print(block, end="\n\n")
    res = npr_extract(Tensor(block[None]), NprConfig(take_abs=False))
    print("Its residual vanishes everywhere:")
    print(res.data[0], end="\n\n")

    print("Perturb one non-anchor pixel by 0.5 and only that pixel reacts:")
    bumped = block.copy()
    bumped[0, 1] += 0.5
    print(npr_extract(Tensor(bumped[None]), NprConfig(take_abs=False)).data[0], end="\n\n")

    print("Now the synthetic corpus. Real images are smooth multi-octave")
    print("noise; fakes are their 2x-resampled copies plus block dither.")
    reals = gen_real(8, 64, rng)
    fakes = gen_fake(reals, np.random.default_rng(1))
    for real, fake in zip(reals, fakes):
        print(f"  real {mean_residual(real.image):.4f}   fake {mean_residual(fake.image):.4f}")

    blocky = resample_2x(reals[0].image)
    print("\nWithout the dither the fake would be exactly block-replicated;")
    print(f"its residual is literally zero: {mean_residual(blocky)}")


if __name__ == "__main__":
    main()
