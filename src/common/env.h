#ifndef PPN_COMMON_ENV_H_
#define PPN_COMMON_ENV_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Typed access to the `PPN_*` environment knobs. Every knob the binary
/// reads is declared once in the registry in env.cc, so `ppn_cli help-env`
/// can enumerate them and a typo'd name aborts instead of silently reading
/// nothing. Numeric accessors parse strictly via common/parse.h: an unset
/// variable yields the fallback, but a set-and-malformed value (including
/// the empty string) aborts with a message naming the variable.
///
/// This is the only translation unit that may call `std::getenv` for a
/// `PPN_*` name; everything else goes through these accessors.

namespace ppn::env {

/// One registered knob, for `ppn_cli help-env`.
struct VarInfo {
  const char* name;         ///< e.g. "PPN_WORKERS"
  const char* kind;         ///< human-readable type: "int", "flag", "path"...
  const char* fallback;     ///< printed default when unset
  const char* description;  ///< one-line summary
};

/// Every knob, in declaration order. Stable across calls.
const std::vector<VarInfo>& Registry();

/// Raw value of a registered knob, or nullptr when unset. Aborts if `name`
/// is not in the registry (catches typos and undeclared knobs).
const char* Raw(const char* name);

/// True when the knob is set at all, even to the empty string.
bool IsSet(const char* name);

/// True when the knob is set to a non-empty string.
bool HasValue(const char* name);

/// Boolean knob convention (PPN_NO_POOL): true when set, non-empty, and
/// not exactly "0".
bool FlagSet(const char* name);

/// Returns `fallback` when the knob is unset; otherwise strict-parses the
/// value (ParseInt64OrDie / ParseDoubleOrDie with the variable name as
/// context). A set-but-empty or malformed value aborts.
int64_t Int64Or(const char* name, int64_t fallback);
double DoubleOr(const char* name, double fallback);

/// Returns the value when set and non-empty, else `fallback`.
std::string StringOr(const char* name, const std::string& fallback);

}  // namespace ppn::env

#endif  // PPN_COMMON_ENV_H_
