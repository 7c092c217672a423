#include "src/hfi/layouts.hpp"

namespace pd::hfi {

const dwarf::LayoutSpec& layout_spec() {
  static const dwarf::LayoutSpec spec{
      .module = "hfi1",
      .producer = "Intel(R) OPA driver build",
      .enums = {{"sdma_states",
                 4,
                 {{"sdma_state_s00_hw_down", 0},
                  {"sdma_state_s10_hw_start_up_halt_wait", 1},
                  {"sdma_state_s15_hw_start_up_clean_wait", 2},
                  {"sdma_state_s20_idle", 3},
                  {"sdma_state_s30_sw_clean_up_wait", 4},
                  {"sdma_state_s40_hw_clean_up_wait", 5},
                  {"sdma_state_s50_hw_halt_wait", 6},
                  {"sdma_state_s60_idle_halt_wait", 7},
                  {"sdma_state_s80_hw_freeze", 8},
                  {"sdma_state_s99_running", 9}}}},
      // Baseline ("10.8-0") layouts. Offsets follow natural alignment with
      // gaps standing in for the many fields the model does not need.
      .structs = {
          dwarf::StructDef{
              "sdma_state",
              64,
              {
                  {"goto_count", 0, 8, "u64"},
                  {"current_state", 40, 4, "enum sdma_states"},
                  {"go_s99_running", 48, 4, "u32"},
                  {"previous_state", 52, 4, "enum sdma_states"},
              }},

          dwarf::StructDef{
              "sdma_engine",
              256,
              {
                  {"this_idx", 16, 4, "u32"},
                  {"descq_cnt", 24, 4, "u32"},
                  {"descq_submitted", 32, 8, "u64"},
                  {"state", 64, 64, "struct sdma_state"},
              }},

          dwarf::StructDef{
              "hfi1_filedata",
              128,
              {
                  {"ctxt", 0, 4, "u32"},
                  {"subctxt", 4, 2, "u16"},
                  {"sdma_engine_idx", 8, 4, "u32"},
                  {"flags", 16, 8, "u64"},
                  {"tid_used", 40, 8, "u64"},
              }},

          dwarf::StructDef{
              "hfi1_ctxtdata",
              192,
              {
                  {"ctxt", 8, 4, "u32"},
                  {"expected_base", 16, 4, "u32"},
                  {"expected_count", 20, 4, "u32"},
                  {"flags", 24, 8, "u64"},
                  {"rcv_egr_count", 48, 8, "u64"},
              }},
      },
      .releases = {{"10.8-0", {}},
                   {"10.9-5",
                    {{"sdma_state", 8, 8},        // new tracing member before current_state
                     {"hfi1_filedata", 16, 4}}},  // widened flags word
                   {"11.0-2",
                    {{"sdma_state", 8, 16},
                     {"hfi1_filedata", 16, 8},
                     {"hfi1_ctxtdata", 24, 8},
                     {"sdma_engine", 32, 16}}}},
  };
  return spec;
}

}  // namespace pd::hfi
