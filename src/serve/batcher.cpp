#include "mlmd/serve/batcher.hpp"

#include <cstring>
#include <stdexcept>

#include "mlmd/obs/metrics.hpp"

namespace mlmd::serve {

MicroBatcher::MicroBatcher(std::size_t max_batch, bool verify)
    : max_batch_(max_batch == 0 ? 1 : max_batch), verify_(verify) {}

std::size_t MicroBatcher::step_group(
    const std::vector<pipeline::Session*>& group,
    std::vector<std::pair<pipeline::Session*, std::string>>* failures) {
  auto& reg = obs::Registry::global();
  static auto& batches = reg.counter("serve.batches");
  static auto& sessions = reg.counter("serve.batch.sessions");
  static auto& occupancy = reg.histogram("serve.batch.occupancy");

  std::size_t stepped = 0;
  for (std::size_t b0 = 0; b0 < group.size(); b0 += max_batch_) {
    const std::size_t b1 = std::min(b0 + max_batch_, group.size());
    const nnq::LatticeModel* gs = group[b0]->options().gs_model.get();
    const nnq::LatticeModel* xs = group[b0]->options().xs_model.get();
    std::vector<const ferro::FerroLattice*> lats;
    std::vector<double> n_exc, n_sat;
    for (std::size_t i = b0; i < b1; ++i) {
      pipeline::Session* s = group[i];
      if (!s->wants_neural_forces())
        throw std::logic_error("MicroBatcher: session not batchable");
      if (s->options().gs_model.get() != gs ||
          s->options().xs_model.get() != xs)
        throw std::logic_error("MicroBatcher: mixed model pair in group");
      lats.push_back(&s->lattice());
      n_exc.push_back(s->n_exc());
      n_sat.push_back(s->n_sat());
    }

    auto f = nnq::xs_mixed_forces_multi(*gs, *xs, lats, n_exc, n_sat);
    batches.add(1);
    sessions.add(b1 - b0);
    occupancy.observe(static_cast<double>(b1 - b0));

    if (verify_) {
      for (std::size_t i = 0; i < lats.size(); ++i) {
        const auto ref =
            nnq::xs_mixed_forces(*gs, *xs, *lats[i], n_exc[i], n_sat[i]);
        if (ref.size() != f[i].size() ||
            (ref.size() &&
             std::memcmp(ref.data(), f[i].data(),
                         ref.size() * sizeof(ferro::Vec3)) != 0))
          throw std::logic_error(
              "MicroBatcher: fused forces differ from a batch of one");
      }
    }

    for (std::size_t i = b0; i < b1; ++i) {
      if (failures) {
        try {
          group[i]->step_with(std::move(f[i - b0]));
          ++stepped;
        } catch (const std::exception& e) {
          failures->emplace_back(group[i], e.what());
        }
      } else {
        group[i]->step_with(std::move(f[i - b0]));
        ++stepped;
      }
    }
  }
  return stepped;
}

} // namespace mlmd::serve
