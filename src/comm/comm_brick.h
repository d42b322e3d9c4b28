#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "comm/address_book.h"
#include "comm/comm_base.h"
#include "comm/dispatcher.h"
#include "comm/ghost_plan.h"
#include "comm/msg_codec.h"
#include "minimpi/world.h"
#include "tofu/utofu.h"

namespace lmp::comm {

/// Transport strategy for the 3-stage pattern: a combined send-toward-
/// channel / receive-on-channel operation between the two face partners
/// of a dimension. `channel` is dim*2 + side (0:-x 1:+x 2:-y 3:+y 4:-z
/// 5:+z); the received message is the one the opposite partner sent on
/// the same channel id.
class BrickTransport {
 public:
  virtual ~BrickTransport() = default;

  /// Collective; `max_channel_doubles` bounds any single payload.
  virtual void setup(const CommContext& ctx, std::size_t max_channel_doubles) = 0;

  virtual std::vector<double> sendrecv(MsgKind kind, int channel, int dst,
                                       int src,
                                       std::span<const double> payload) = 0;
};

/// Two-sided transport over the minimpi stack — the *Ref* baseline.
class MpiBrickTransport final : public BrickTransport {
 public:
  explicit MpiBrickTransport(minimpi::World& world) : world_(&world) {}
  void setup(const CommContext& ctx, std::size_t max_channel_doubles) override;
  std::vector<double> sendrecv(MsgKind kind, int channel, int dst, int src,
                               std::span<const double> payload) override;

 private:
  minimpi::World* world_;
  int rank_ = 0;
};

/// One-sided transport over uTofu (paper's `utofu_3stage` variant): the
/// payload is length-prefixed (message combine, Sec. 3.5.1), put into the
/// partner's pre-registered round-robin ring buffer, and announced via
/// the piggyback descriptor word.
class UtofuBrickTransport final : public BrickTransport {
 public:
  UtofuBrickTransport(tofu::Network& net, AddressBook& book, int tni = 0);
  void setup(const CommContext& ctx, std::size_t max_channel_doubles) override;
  std::vector<double> sendrecv(MsgKind kind, int channel, int dst, int src,
                               std::span<const double> payload) override;

 private:
  tofu::Network* net_;
  AddressBook* book_;
  int tni_;
  int rank_ = 0;
  std::unique_ptr<tofu::UtofuContext> utofu_;
  tofu::RegisteredBuffer send_buf_;
  std::array<tofu::RegisteredBuffer, kRingSlots> rings_[6];
  std::array<int, 6> ring_next_{};
  NoticeDispatcher dispatcher_;
  std::size_t ring_doubles_ = 0;
};

/// The LAMMPS default 3-stage ghost communication (paper Fig. 4): each
/// dimension exchanges with its two face partners in turn, and later
/// stages carry the ghosts of earlier ones, covering all 26 neighbors
/// with 6 messages at the price of strict stage ordering. The exchange
/// plan (channels, shifts, border selection, migration, sizing) lives in
/// GhostPlan; this class only drives its transport over that plan.
class CommBrick final : public Comm {
 public:
  CommBrick(const CommContext& ctx, std::unique_ptr<BrickTransport> transport);

  void setup() override;
  void exchange() override;
  void borders() override;
  void forward_begin() override;  ///< eager: the whole forward exchange
  void reverse_forces() override;

  // md::GhostDataComm (EAM mid-pair scalar comm)
  void forward(double* per_atom) override;
  void reverse_add(double* per_atom) override;

  /// Ghost count received per channel (tests).
  std::array<int, 6> ghosts_per_channel() const;

 private:
  static int side_of(int channel) { return channel % 2; }

  std::unique_ptr<BrickTransport> transport_;
  GhostPlan plan_;
};

}  // namespace lmp::comm
