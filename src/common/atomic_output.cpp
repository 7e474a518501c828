#include "common/atomic_output.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <utility>

namespace ipfs::common {

namespace {

/// Temporaries a SIGINT or SIGTERM must remove, registered while they are
/// open.  Lock-free atomic pointers, so the handler may read them.
constexpr int kSignalSlots = 8;
std::atomic<const char*> g_temporaries[kSignalSlots];
static_assert(std::atomic<const char*>::is_always_lock_free,
              "the signal handler reads the slots");

/// Removes every registered temporary, then re-raises the signal under its
/// default action, so the process still dies of it.  Calls only
/// async-signal-safe functions.
void remove_temporaries_and_reraise(int signal_number) {
  for (std::atomic<const char*>& slot : g_temporaries) {
    if (const char* path = slot.load()) ::unlink(path);
  }
  struct sigaction fallback {};
  fallback.sa_handler = SIG_DFL;
  sigemptyset(&fallback.sa_mask);
  ::sigaction(signal_number, &fallback, nullptr);
  ::raise(signal_number);
}

/// Installs the handler for SIGINT and SIGTERM once.  A signal the process
/// ignores (SIGINT in a background job) or already handles keeps its
/// disposition.
void install_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const int signal_number : {SIGINT, SIGTERM}) {
      struct sigaction previous {};
      if (::sigaction(signal_number, nullptr, &previous) != 0) continue;
      if ((previous.sa_flags & SA_SIGINFO) != 0 || previous.sa_handler != SIG_DFL) {
        continue;
      }
      struct sigaction action {};
      action.sa_handler = remove_temporaries_and_reraise;
      sigemptyset(&action.sa_mask);
      ::sigaction(signal_number, &action, nullptr);
    }
  });
}

/// The slot now holding `path`, or -1 when more temporaries are open than
/// there are slots (that one is then not removed on a signal).
int register_temporary(const char* path) {
  install_handlers();
  for (int slot = 0; slot < kSignalSlots; ++slot) {
    const char* expected = nullptr;
    if (g_temporaries[slot].compare_exchange_strong(expected, path)) return slot;
  }
  return -1;
}

}  // namespace

AtomicOutput::AtomicOutput(std::string path) : path_(std::move(path)) {
  struct stat target {};
  const bool exists = ::lstat(path_.c_str(), &target) == 0;
  if (exists && !S_ISREG(target.st_mode)) {
    out_.open(path_, std::ios::binary);
    return;
  }
  temp_ = path_ + ".tmp." + std::to_string(::getpid());
  signal_slot_ = register_temporary(temp_.c_str());
  out_.open(temp_, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    discard();
    return;
  }
  // The replacement keeps the permissions of the file it replaces.
  if (exists) ::chmod(temp_.c_str(), target.st_mode & 07777);
}

AtomicOutput::~AtomicOutput() { discard(); }

bool AtomicOutput::commit() {
  out_.flush();
  bool ok = static_cast<bool>(out_);
  out_.close();
  ok = ok && !out_.fail();
  if (temp_.empty()) return ok;
  if (!ok || std::rename(temp_.c_str(), path_.c_str()) != 0) {
    discard();
    return false;
  }
  if (signal_slot_ >= 0) g_temporaries[signal_slot_].store(nullptr);
  signal_slot_ = -1;
  temp_.clear();
  return true;
}

void AtomicOutput::discard() noexcept {
  if (out_.is_open()) out_.close();
  if (temp_.empty()) return;
  ::unlink(temp_.c_str());
  // Unregister before the path's storage goes: a signal from here on has
  // nothing left to remove.
  if (signal_slot_ >= 0) g_temporaries[signal_slot_].store(nullptr);
  signal_slot_ = -1;
  temp_.clear();
}

}  // namespace ipfs::common
