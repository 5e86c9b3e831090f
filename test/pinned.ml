(* A processor pinned to one configuration whatever the suite's
   environment (a CI leg sets GHOSTBUSTERS_INJECT): no injected faults.
   [engine] adjusts the mode's engine config. *)
let processor ?obs ?audit ?(engine = Fun.id) mode program =
  let config = Gb_system.Processor.config_for mode in
  let engine = engine config.Gb_system.Processor.engine in
  let config = { config with Gb_system.Processor.engine } in
  let inject = Sys.getenv_opt Gb_system.Inject.env_var in
  Unix.putenv Gb_system.Inject.env_var "";
  let p = Gb_system.Processor.create ~config ?obs ?audit program in
  Option.iter (Unix.putenv Gb_system.Inject.env_var) inject;
  p
