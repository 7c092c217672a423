#include "src/doom/layouts.hpp"

namespace pd::doom {

const dwarf::LayoutSpec& layout_spec() {
  static const dwarf::LayoutSpec spec{
      .module = "pd_doom",
      .producer = "pd-doom accelerator driver build",
      .enums = {{"doom_run_state",
                 4,
                 {{"doom_halted", 0},
                  {"doom_running", 1},
                  {"doom_error", 2}}}},
      // Baseline ("0.9-d6") layouts. Offsets follow natural alignment with
      // gaps standing in for the many fields the model does not need.
      .structs = {
          dwarf::StructDef{
              "doom_ringstate",
              48,
              {
                  {"run_state", 0, 4, "enum doom_run_state"},
                  {"error_flags", 8, 4, "u32"},
                  {"cmds_retired", 16, 8, "u64"},
              }},

          dwarf::StructDef{
              "doom_devdata",
              192,
              {
                  {"dev_idx", 0, 4, "u32"},
                  {"ring_slots", 8, 4, "u32"},
                  {"cmds_submitted", 16, 8, "u64"},
                  {"fence_seq", 24, 8, "u64"},
                  {"ring", 64, 48, "struct doom_ringstate"},
              }},

          dwarf::StructDef{
              "doom_ctx",
              128,
              {
                  {"ctx_id", 0, 4, "u32"},
                  {"flags", 8, 8, "u64"},
                  {"pt_capacity", 16, 4, "u32"},
                  {"pt_used", 24, 8, "u64"},
                  {"batches_submitted", 32, 8, "u64"},
                  {"dva_next", 40, 8, "u64"},
              }},
      },
      .releases = {{"0.9-d6", {}},
                   {"1.1-d2",
                    {{"doom_ctx", 8, 8},         // new tracing member before flags
                     {"doom_devdata", 24, 8}}},  // widened IRQ mask before fence_seq
                   {"2.0-d1",
                    {{"doom_ringstate", 8, 8},
                     {"doom_ctx", 16, 16},
                     {"doom_devdata", 16, 8}}}},
  };
  return spec;
}

}  // namespace pd::doom
