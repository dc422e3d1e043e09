// A platform model with one field that neither append_key nor
// platform_field_edits lists: check_model_fields.py must reject it. The
// static member and the member function are not fields.

#pragma once

namespace amdrel::platform {

struct CgcModel {
  static constexpr int kMaxRows = 8;

  int count = 2;  ///< listed in both

  /// Listed in neither: a knob that prices nothing.
  int bank_capacity = 0;

  int slots() const { return count * kMaxRows; }
};

}  // namespace amdrel::platform
