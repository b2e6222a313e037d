#include "auction/score_matrix.hpp"

namespace decloud::auction {

namespace {

void fill_row(std::vector<double>& matrix, std::size_t row, std::size_t width,
              const ResourceVector& v, const BlockScale& scale) {
  double* out = matrix.data() + row * width;
  for (const auto& e : v.entries()) {
    if (e.type < width) out[e.type] = scale.normalized(e.type, e.amount);
  }
}

}  // namespace

ScoreMatrix::ScoreMatrix(const MarketSnapshot& snapshot, const BlockScale& scale)
    : width_(scale.dimension()) {
  const std::size_t nr = snapshot.requests.size();
  const std::size_t no = snapshot.offers.size();
  req_norm_.assign(nr * width_, 0.0);
  req_sig_.assign(nr * width_, 0.0);
  off_norm_.assign(no * width_, 0.0);
  req_types_offset_.reserve(nr + 1);
  req_types_offset_.push_back(0);
  for (std::size_t r = 0; r < nr; ++r) {
    const Request& request = snapshot.requests[r];
    fill_row(req_norm_, r, width_, request.resources, scale);
    double* sig = req_sig_.data() + r * width_;
    for (const auto& e : request.resources.entries()) {
      if (e.type < width_) {
        sig[e.type] = request.significance_of(e.type);
        req_types_.push_back(e.type);  // entries() is sorted ascending
      }
    }
    req_types_offset_.push_back(req_types_.size());
  }
  for (std::size_t o = 0; o < no; ++o) {
    fill_row(off_norm_, o, width_, snapshot.offers[o].resources, scale);
  }
}

double ScoreMatrix::score_sparse(std::size_t request, std::size_t offer) const {
  const double* rp = req_norm_.data() + request * width_;
  const double* sig = req_sig_.data() + request * width_;
  const double* op = off_norm_.data() + offer * width_;
  double q = 0.0;
  // Ascending declared ids only: every skipped column has σmask = 0, so it
  // would have added exactly +0.0 to the (non-negative) running sum.
  for (const ResourceId k : request_types(request)) {
    const double d = op[k] - rp[k];
    q += sig[k] * op[k] / (d * d + 1.0);
  }
  return q;
}

}  // namespace decloud::auction
