#include "comm/comm_p2p_mpi.h"

#include <cstring>
#include <stdexcept>

#include "comm/comm_factory.h"
#include "comm/pack_kernels.h"

namespace lmp::comm {

CommP2pMpi::CommP2pMpi(const CommContext& ctx, minimpi::World& world)
    : Comm(ctx), world_(&world) {}

void CommP2pMpi::setup() { plan_ = GhostPlan::p2p(ctx_, /*use_border_bins=*/true); }

void CommP2pMpi::send_payload(MsgKind kind, int dir,
                              const std::vector<double>& payload) {
  world_->send(ctx_.rank, plan_.send_peer(dir), tag_for(kind, opposite(dir)),
               std::as_bytes(std::span<const double>(payload)));
  account(counters_, kind, payload.size());
}

std::vector<double> CommP2pMpi::recv_payload(MsgKind kind, int dir) {
  const std::vector<std::byte> raw =
      world_->recv(ctx_.rank, plan_.recv_peer(dir), tag_for(kind, dir));
  std::vector<double> out(raw.size() / sizeof(double));
  // An empty receive has null data(); memcpy from null is UB even for 0 bytes.
  if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

void CommP2pMpi::borders() {
  md::Atoms& atoms = *ctx_.atoms;
  atoms.clear_ghosts();
  plan_.build_send_lists(atoms);

  for (const int d : plan_.send_channels()) {
    send_payload(MsgKind::kBorder, d,
                 pack_border(atoms, plan_.send_list(d), plan_.shift(d)));
  }
  for (const int u : plan_.recv_channels()) {
    const std::vector<double> in = recv_payload(MsgKind::kBorder, u);
    const int start = atoms.ntotal();
    const int n = unpack_border(atoms, in);
    plan_.set_ghost_block(u, start, n);
  }
}

void CommP2pMpi::forward_begin() {
  md::Atoms& atoms = *ctx_.atoms;
  double* x = atoms.x();
  for (const int d : plan_.send_channels()) {
    send_payload(MsgKind::kForward, d,
                 pack_positions(x, plan_.send_list(d), plan_.shift(d)));
  }
  for (const int u : plan_.recv_channels()) {
    const std::vector<double> in = recv_payload(MsgKind::kForward, u);
    if (static_cast<int>(in.size()) != 3 * plan_.ghost_count(u)) {
      throw std::logic_error("forward ghost count changed since borders()");
    }
    unpack_positions(x, plan_.ghost_start(u), in);
  }
}

void CommP2pMpi::reverse_forces() {
  if (!ctx_.newton) return;
  md::Atoms& atoms = *ctx_.atoms;
  double* f = atoms.f();
  for (const int u : plan_.recv_channels()) {
    const std::vector<double> payload(
        f + 3 * plan_.ghost_start(u),
        f + 3 * (plan_.ghost_start(u) + plan_.ghost_count(u)));
    send_payload(MsgKind::kReverse, u, payload);
  }
  for (const int d : plan_.send_channels()) {
    add_forces(f, plan_.send_list(d), recv_payload(MsgKind::kReverse, d));
  }
}

void CommP2pMpi::forward(double* per_atom) {
  for (const int d : plan_.send_channels()) {
    send_payload(MsgKind::kScalarFwd, d,
                 pack_scalar(per_atom, plan_.send_list(d)));
  }
  for (const int u : plan_.recv_channels()) {
    unpack_scalar(per_atom, plan_.ghost_start(u),
                  recv_payload(MsgKind::kScalarFwd, u));
  }
}

void CommP2pMpi::reverse_add(double* per_atom) {
  if (!ctx_.newton) return;
  for (const int u : plan_.recv_channels()) {
    const std::vector<double> payload(
        per_atom + plan_.ghost_start(u),
        per_atom + plan_.ghost_start(u) + plan_.ghost_count(u));
    send_payload(MsgKind::kScalarRev, u, payload);
  }
  for (const int d : plan_.send_channels()) {
    add_scalar(per_atom, plan_.send_list(d),
               recv_payload(MsgKind::kScalarRev, d));
  }
}

void CommP2pMpi::exchange() {
  md::Atoms& atoms = *ctx_.atoms;
  if (atoms.nghost() != 0) {
    throw std::logic_error("exchange requires ghosts to be cleared");
  }

  const MigrationPlan mig = plan_.classify_migrants(atoms);
  std::array<std::vector<double>, kNumDirs> outbound;
  for (int d = 0; d < kNumDirs; ++d) {
    outbound[static_cast<std::size_t>(d)] = pack_exchange(
        atoms, mig.by_dir[static_cast<std::size_t>(d)], plan_.shift(d));
  }
  atoms.remove_locals(mig.gone);

  for (int d = 0; d < kNumDirs; ++d) {
    send_payload(MsgKind::kExchange, d, outbound[static_cast<std::size_t>(d)]);
  }
  for (int u = 0; u < kNumDirs; ++u) {
    unpack_exchange(atoms, recv_payload(MsgKind::kExchange, u));
  }
}

// --- factory registration ----------------------------------------------
// Half-shell p2p ghosts keep every local-ghost pair.

namespace {

const CommRegistrar kMpiP2pRegistrar{{
    "mpi_p2p",
    "naive p2p over the MPI stack (Fig. 6's cautionary tale)",
    md::HalfRule::kAllGhosts,
    [](const CommBuildInputs& in) {
      CommInstance out;
      out.comm = std::make_unique<CommP2pMpi>(in.ctx, *in.world);
      return out;
    },
}};

}  // namespace

}  // namespace lmp::comm
