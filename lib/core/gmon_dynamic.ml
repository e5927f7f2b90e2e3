let scheduler : Pass.scheduler =
  (module struct
    let name = "gmon-dynamic"

    let aliases = [ "gmondynamic"; "gd" ]

    let table1 = false

    let consumes = `Native

    (* ColorDynamic's schedule, executed behind tunable couplers *)
    let schedule (options : Pass.options) device native =
      let (module Cd : Pass.SCHEDULER) = Color_dynamic.scheduler in
      let schedule, stats = Cd.schedule options device native in
      ( {
          schedule with
          Schedule.algorithm = name;
          coupler = Schedule.Tunable_coupler options.Pass.residual_coupling;
        },
        stats )
  end)
