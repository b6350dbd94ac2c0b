#include "accel/filters.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/rng.hpp"

namespace rvcap::accel {

Image make_test_image(u32 width, u32 height, u64 seed) {
  Image img{width, height, std::vector<u8>(usize{width} * height)};
  SplitMix64 rng(seed);
  for (u32 y = 0; y < height; ++y) {
    for (u32 x = 0; x < width; ++x) {
      // Diagonal gradient + blocky structure + noise: gives every
      // filter meaningful edges to respond to.
      const u32 grad = (x + y) / 4;
      const u32 block = ((x / 32) ^ (y / 32)) & 1 ? 64 : 0;
      const u32 noise = static_cast<u32>(rng.next_below(32));
      img.pixels[usize{y} * width + x] =
          static_cast<u8>(std::min<u32>(255, grad + block + noise));
    }
  }
  return img;
}

namespace {

u8 clamp255(int v) { return static_cast<u8>(std::clamp(v, 0, 255)); }

/// Window fetch with horizontal replicate.
u8 px(std::span<const u8> row, int x) {
  const int w = static_cast<int>(row.size());
  return row[static_cast<usize>(std::clamp(x, 0, w - 1))];
}

/// Median of three: max(min(a, b), min(max(a, b), c)).
u8 med3(u8 a, u8 b, u8 c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/// 3x3 median by column sorting: with each column sorted, the median of
/// the nine is the median of (largest column minimum, median of the
/// column medians, smallest column maximum). Pass 1 sorts every column
/// once; pass 2 combines each window's three columns. Both passes are
/// straight min/max over arrays, which the compiler turns into
/// branch-free (vector) code.
void median_row(std::span<const u8> above, std::span<const u8> cur,
                std::span<const u8> below, std::span<u8> out) {
  const usize w = cur.size();
  if (w == 0) return;
  // Sorted columns, indexed by image column + 1, with the replicate
  // border as one extra column on each side.
  std::vector<u8> cols(3 * (w + 2));
  u8* lo = cols.data();
  u8* mid = lo + (w + 2);
  u8* hi = mid + (w + 2);
  for (usize x = 0; x < w; ++x) {
    const u8 a = above[x], b = cur[x], c = below[x];
    lo[x + 1] = std::min(std::min(a, b), c);
    mid[x + 1] = med3(a, b, c);
    hi[x + 1] = std::max(std::max(a, b), c);
  }
  for (u8* col : {lo, mid, hi}) {
    col[0] = col[1];
    col[w + 1] = col[w];
  }
  for (usize x = 0; x < w; ++x) {
    out[x] = med3(std::max(std::max(lo[x], lo[x + 1]), lo[x + 2]),
                  med3(mid[x], mid[x + 1], mid[x + 2]),
                  std::min(std::min(hi[x], hi[x + 1]), hi[x + 2]));
  }
}

}  // namespace

void filter_row(FilterKind kind, std::span<const u8> above,
                std::span<const u8> cur, std::span<const u8> below,
                std::span<u8> out) {
  if (kind == FilterKind::kMedian) {
    median_row(above, cur, below, out);
    return;
  }
  const int w = static_cast<int>(cur.size());
  for (int x = 0; x < w; ++x) {
    const u8 p00 = px(above, x - 1), p01 = px(above, x), p02 = px(above, x + 1);
    const u8 p10 = px(cur, x - 1), p11 = px(cur, x), p12 = px(cur, x + 1);
    const u8 p20 = px(below, x - 1), p21 = px(below, x), p22 = px(below, x + 1);
    switch (kind) {
      case FilterKind::kSobel: {
        const int gx = -p00 + p02 - 2 * p10 + 2 * p12 - p20 + p22;
        const int gy = -p00 - 2 * p01 - p02 + p20 + 2 * p21 + p22;
        out[static_cast<usize>(x)] = clamp255(std::abs(gx) + std::abs(gy));
        break;
      }
      case FilterKind::kMedian:
        break;  // median_row above
      case FilterKind::kGaussian: {
        const int sum = p00 + 2 * p01 + p02 + 2 * p10 + 4 * p11 + 2 * p12 +
                        p20 + 2 * p21 + p22;
        out[static_cast<usize>(x)] = static_cast<u8>((sum + 8) / 16);
        break;
      }
    }
  }
}

Image apply_golden(FilterKind kind, const Image& in) {
  Image out{in.width, in.height,
            std::vector<u8>(usize{in.width} * in.height)};
  for (u32 y = 0; y < in.height; ++y) {
    const u32 ya = (y == 0) ? 0 : y - 1;
    const u32 yb = (y + 1 == in.height) ? y : y + 1;
    const auto row = [&](u32 yy) {
      return std::span<const u8>(in.pixels).subspan(usize{yy} * in.width,
                                                    in.width);
    };
    filter_row(kind, row(ya), row(y), row(yb),
               std::span<u8>(out.pixels).subspan(usize{y} * in.width,
                                                 in.width));
  }
  return out;
}

}  // namespace rvcap::accel
